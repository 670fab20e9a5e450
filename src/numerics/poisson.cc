#include "numerics/poisson.h"

#include <math.h>

#include <cmath>

#include "support/check.h"

namespace rbx {

namespace {

// ln k! via lgamma_r: std::lgamma writes glibc's global signgam, a data
// race when cells evaluate on several threads; the reentrant form returns
// the same value and keeps the sign local.
double log_factorial(std::size_t k) {
  int sign = 0;
  return ::lgamma_r(static_cast<double>(k) + 1.0, &sign);
}

double log_pmf(std::size_t k, double mean) {
  if (mean == 0.0) {
    return k == 0 ? 0.0 : -std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(k) * std::log(mean) - mean - log_factorial(k);
}

}  // namespace

double poisson_pmf(std::size_t k, double mean) {
  RBX_CHECK(mean >= 0.0);
  return std::exp(log_pmf(k, mean));
}

PoissonWindow poisson_window(double mean, double epsilon) {
  RBX_CHECK(mean >= 0.0);
  RBX_CHECK(epsilon > 0.0 && epsilon < 1.0);

  PoissonWindow w;
  if (mean == 0.0) {
    w.k_lo = 0;
    w.weights = {1.0};
    return w;
  }

  // Expand symmetrically (in probability) from the mode until the captured
  // mass exceeds 1 - epsilon.  The pmf is unimodal, so marching outwards from
  // the mode adds monotonically decreasing terms on each side.
  const auto mode = static_cast<std::size_t>(mean);
  double mass = poisson_pmf(mode, mean);
  std::size_t lo = mode;
  std::size_t hi = mode;
  double p_lo = mass;  // pmf at lo
  double p_hi = mass;  // pmf at hi
  while (mass < 1.0 - epsilon) {
    // Candidate extensions.
    const double next_lo =
        lo > 0 ? p_lo * static_cast<double>(lo) / mean : 0.0;
    const double next_hi = p_hi * mean / static_cast<double>(hi + 1);
    // Once both frontier terms fall below double precision relative to the
    // captured mass, further expansion cannot move `mass`; the window is as
    // complete as floating point permits (renormalization below absorbs the
    // remaining epsilon).
    if (next_lo < 1e-18 * mass && next_hi < 1e-18 * mass) {
      break;
    }
    if (next_lo >= next_hi && lo > 0) {
      --lo;
      p_lo = next_lo;
      mass += p_lo;
    } else {
      ++hi;
      p_hi = next_hi;
      mass += p_hi;
      RBX_CHECK_MSG(hi < 100000000, "poisson window failed to converge");
    }
  }

  w.k_lo = lo;
  w.weights.resize(hi - lo + 1);
  // Recompute stably from the mode outward.
  w.weights[mode - lo] = poisson_pmf(mode, mean);
  for (std::size_t k = mode; k-- > lo;) {
    w.weights[k - lo] =
        w.weights[k + 1 - lo] * static_cast<double>(k + 1) / mean;
  }
  for (std::size_t k = mode + 1; k <= hi; ++k) {
    w.weights[k - lo] =
        w.weights[k - 1 - lo] * mean / static_cast<double>(k);
  }

  double total = 0.0;
  for (double v : w.weights) {
    total += v;
  }
  w.tail_mass = 1.0 - total;
  // Renormalize so downstream probability vectors stay stochastic.
  for (double& v : w.weights) {
    v /= total;
  }
  return w;
}

}  // namespace rbx

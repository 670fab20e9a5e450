#include "workloads.h"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "runtime/system.h"

namespace sweepbench {

namespace {

using rbx::EvalPlan;
using rbx::EvalStep;
using rbx::Scenario;
using rbx::SchemeKind;

// rho = C(n,2) lambda / (n mu)  =>  lambda = 2 rho mu / (n - 1), the
// arithmetic of bench/bench_main.h's lambda_for_rho.
double lambda_for_rho(std::size_t n, double rho) {
  return 2.0 * rho / (static_cast<double>(n) - 1.0);
}

// The Figure 5 grid exactly as bench/fig5_mean_interval.cc builds it at
// its defaults (20000 samples, nmax 9), master seed `seed`, every cell
// split into `streams` sample streams.
std::vector<Scenario> fig5_cells(std::uint64_t seed, std::size_t streams) {
  static const double rho_levels[] = {0.5, 1.0, 2.0};
  const std::size_t samples = 20000;
  const std::size_t nmax = 9;
  std::vector<Scenario> cells;
  for (double rho : rho_levels) {
    for (std::size_t n = 2; n <= nmax; ++n) {
      cells.push_back(Scenario::symmetric(n, 1.0, lambda_for_rho(n, rho))
                          .seed(seed + n)
                          .samples(std::max<std::size_t>(
                              1, samples / (n >= 5 ? 4 : 1)))
                          .streams(streams));
    }
  }
  return cells;
}

// The analytic-only grid.  The rho levels are drawn from `seed`, so a
// seed fixes the grid's 720 distinct parameter points; the seed axis
// repeats each point, which is what the analytic solution cache hits on.
std::vector<Scenario> analytic_cells(std::uint64_t seed) {
  // mt19937_64's output sequence is fixed by the standard, and the
  // conversion to [0, 1) below is ours, so a seed gives the same grid on
  // every platform.
  std::mt19937_64 rng(seed);
  std::vector<double> rho(kAnalyticRhoLevels);
  for (double& r : rho) {
    r = 0.25 + 2.75 * static_cast<double>(rng() >> 11) * 0x1.0p-53;
  }
  static const SchemeKind schemes[] = {SchemeKind::kAsynchronous,
                                       SchemeKind::kSynchronized,
                                       SchemeKind::kPseudoRecoveryPoints};
  std::vector<Scenario> cells;
  cells.reserve(kAnalyticSeeds * 6 * kAnalyticRhoLevels * 3);
  // Seed axis outermost: the first pass over the parameter points is the
  // cold cache fill, every later pass hits.
  for (std::size_t k = 0; k < kAnalyticSeeds; ++k) {
    const std::uint64_t cell_seed = rng();
    for (std::size_t n = 2; n <= 7; ++n) {
      for (double r : rho) {
        for (SchemeKind scheme : schemes) {
          cells.push_back(Scenario::symmetric(n, 1.0, lambda_for_rho(n, r))
                              .scheme(scheme)
                              .seed(cell_seed));
        }
      }
    }
  }
  return cells;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fig5-streams", "analytic-grid"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "fig5-streams") {
    w.cells = fig5_cells(seed, 4);
    // bench/fig5_mean_interval.cc's plan: the analytic chain for every
    // cell, cross-checked by Monte-Carlo where n <= 6.
    w.plan_fn = [](const Scenario& s, std::size_t) {
      EvalPlan plan{{EvalStep{"analytic", ""}}};
      if (s.n() <= 6) {
        plan.steps.push_back(EvalStep{"monte-carlo", "mc_"});
      }
      return plan;
    };
    return w;
  }
  if (name == "analytic-grid") {
    w.cells = analytic_cells(seed);
    w.plan_fn = [](const Scenario&, std::size_t) {
      return EvalPlan{{EvalStep{"analytic", ""}}};
    };
    return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace sweepbench

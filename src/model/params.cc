#include "model/params.h"

#include <charconv>
#include <cmath>
#include <system_error>

#include "support/check.h"

namespace rbx {

namespace {

// Appends v exactly as a default-formatted std::ostream prints it in the
// C locale: printf's %.6g ("0.666667", "1e-05", "1e+16", "inf", "-nan").
// std::to_chars with general format and an explicit precision is
// specified as that printf conversion, without the stream's locale and
// sentry machinery.
void append_general6(std::string& out, double v) {
  char buf[32];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6);
  RBX_CHECK(r.ec == std::errc());
  out.append(buf, r.ptr);
}

}  // namespace

ProcessSetParams::ProcessSetParams(std::vector<double> mu,
                                   std::vector<double> lambda_flat)
    : mu_(std::move(mu)), lambda_(std::move(lambda_flat)) {
  const std::size_t n = mu_.size();
  RBX_CHECK_MSG(n >= 1, "at least one process");
  RBX_CHECK_MSG(lambda_.size() == n * n, "lambda must be n x n");
  for (double m : mu_) {
    RBX_CHECK_MSG(m > 0.0, "recovery point rates must be positive");
  }
  for (std::size_t i = 0; i < n; ++i) {
    RBX_CHECK_MSG(lambda_[i * n + i] == 0.0, "lambda diagonal must be zero");
    for (std::size_t j = 0; j < n; ++j) {
      RBX_CHECK_MSG(lambda_[i * n + j] >= 0.0, "lambda must be non-negative");
      RBX_CHECK_MSG(lambda_[i * n + j] == lambda_[j * n + i],
                    "lambda must be symmetric");
    }
  }
}

ProcessSetParams ProcessSetParams::symmetric(std::size_t n, double mu,
                                             double lambda) {
  std::vector<double> mus(n, mu);
  std::vector<double> lam(n * n, lambda);
  for (std::size_t i = 0; i < n; ++i) {
    lam[i * n + i] = 0.0;
  }
  return ProcessSetParams(std::move(mus), std::move(lam));
}

ProcessSetParams ProcessSetParams::three(double mu1, double mu2, double mu3,
                                         double l12, double l23, double l13) {
  std::vector<double> mus = {mu1, mu2, mu3};
  std::vector<double> lam(9, 0.0);
  auto set = [&lam](std::size_t i, std::size_t j, double v) {
    lam[i * 3 + j] = v;
    lam[j * 3 + i] = v;
  };
  set(0, 1, l12);
  set(1, 2, l23);
  set(0, 2, l13);
  return ProcessSetParams(std::move(mus), std::move(lam));
}

double ProcessSetParams::mu(std::size_t i) const {
  RBX_CHECK(i < mu_.size());
  return mu_[i];
}

double ProcessSetParams::lambda(std::size_t i, std::size_t j) const {
  RBX_CHECK(i < mu_.size() && j < mu_.size());
  return lambda_[i * mu_.size() + j];
}

double ProcessSetParams::total_mu() const {
  double sum = 0.0;
  for (double m : mu_) {
    sum += m;
  }
  return sum;
}

double ProcessSetParams::total_lambda() const {
  const std::size_t n = mu_.size();
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      sum += lambda_[i * n + j];
    }
  }
  return sum;
}

double ProcessSetParams::interaction_rate(std::size_t i) const {
  RBX_CHECK(i < mu_.size());
  const std::size_t n = mu_.size();
  double sum = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    sum += lambda_[i * n + j];
  }
  return sum;
}

double ProcessSetParams::total_event_rate() const {
  return total_lambda() + total_mu();
}

double ProcessSetParams::rho() const { return total_lambda() / total_mu(); }

bool ProcessSetParams::is_symmetric_rates() const {
  const std::size_t n = mu_.size();
  for (std::size_t i = 1; i < n; ++i) {
    if (mu_[i] != mu_[0]) {
      return false;
    }
  }
  if (n < 2) {
    return true;
  }
  const double l0 = lambda_[1];  // lambda(0, 1)
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && lambda_[i * n + j] != l0) {
        return false;
      }
    }
  }
  return true;
}

std::string ProcessSetParams::describe() const {
  std::string out = "n=";
  out += std::to_string(n());
  out += " mu=(";
  for (std::size_t i = 0; i < n(); ++i) {
    if (i) {
      out += ',';
    }
    append_general6(out, mu_[i]);
  }
  out += ") lambda=(";
  bool first = true;
  for (std::size_t i = 0; i < n(); ++i) {
    for (std::size_t j = i + 1; j < n(); ++j) {
      if (!first) {
        out += ',';
      }
      append_general6(out, lambda_[i * n() + j]);
      first = false;
    }
  }
  out += ") rho=";
  append_general6(out, rho());
  return out;
}

}  // namespace rbx

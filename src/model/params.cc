#include "model/params.h"

#include <charconv>
#include <cmath>
#include <cstring>
#include <string_view>
#include <system_error>

#include "support/check.h"

namespace rbx {

namespace {

// The text of a rate exactly as a default-formatted std::ostream prints
// it in the C locale: printf's %.6g ("0.666667", "1e-05", "1e+16", "inf",
// "-nan").  std::to_chars with general format and an explicit precision
// is specified as that printf conversion, without the stream's locale and
// sentry machinery.  A rate whose bit pattern equals the previous one's
// reuses the text already formatted, so a homogeneous rate vector is
// formatted once.  The compare is on bits, not ==, so adjacent -0.0 and
// 0.0 still print "-0" and "0".
class RateText {
 public:
  std::string_view of(double v) {
    if (len_ == 0 || std::memcmp(&v, last_, sizeof v) != 0) {
      const std::to_chars_result r = std::to_chars(
          buf_, buf_ + sizeof buf_, v, std::chars_format::general, 6);
      RBX_CHECK(r.ec == std::errc());
      len_ = static_cast<std::size_t>(r.ptr - buf_);
      std::memcpy(last_, &v, sizeof v);
    }
    return std::string_view(buf_, len_);
  }

 private:
  unsigned char last_[sizeof(double)] = {};
  char buf_[32] = {};
  std::size_t len_ = 0;  // 0 until the first rate
};

// Room describe_into() reserves beyond the rate lists: "n=" and its
// digits, the bracket text, " rho=" and its value, and the " seed=" and
// " streams=" suffix Scenario::label() appends to the same buffer.
constexpr std::size_t kDescribeSlack = 96;

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
  std::string out;
  describe_into(out);
  return out;
}

void ProcessSetParams::describe_into(std::string& out) const {
  const std::size_t n = this->n();
  const std::size_t pairs = n * (n - 1) / 2;
  RateText mu_text;
  RateText lambda_text;
  // Exact for homogeneous rates; a longer rate later grows the buffer.
  const std::size_t mu_len = mu_text.of(mu_[0]).size();
  const std::size_t lambda_len = n > 1 ? lambda_text.of(lambda_[1]).size() : 0;
  out.reserve(out.size() + n * (mu_len + 1) + pairs * (lambda_len + 1) +
              kDescribeSlack);
  out += "n=";
  out += std::to_string(n);
  out += " mu=(";
  for (std::size_t i = 0; i < n; ++i) {
    if (i) {
      out += ',';
    }
    out += mu_text.of(mu_[i]);
  }
  out += ") lambda=(";
  bool first = true;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (!first) {
        out += ',';
      }
      out += lambda_text.of(lambda_[i * n + j]);
      first = false;
    }
  }
  out += ") rho=";
  out += RateText().of(rho());
}

}  // namespace rbx

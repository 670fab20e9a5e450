#include "core/scenario.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace rbx {
namespace {

TEST(Scenario, DefaultsAreTheLibraryDefaults) {
  const Scenario s = Scenario::symmetric(3, 1.0, 1.0);
  EXPECT_EQ(s.n(), 3u);
  EXPECT_EQ(s.scheme(), SchemeKind::kAsynchronous);
  EXPECT_EQ(s.samples(), 20000u);
  EXPECT_DOUBLE_EQ(s.error_rate(), 0.0);
  EXPECT_DOUBLE_EQ(s.t_record(), 0.01);
  EXPECT_FALSE(s.scoped_prp());
}

TEST(Scenario, FluentSettersChain) {
  const Scenario s = Scenario::symmetric(4, 2.0, 0.5)
                         .scheme(SchemeKind::kSynchronized)
                         .seed(99)
                         .samples(123)
                         .error_rate(0.25)
                         .t_record(0.002);
  EXPECT_EQ(s.scheme(), SchemeKind::kSynchronized);
  EXPECT_EQ(s.seed(), 99u);
  EXPECT_EQ(s.samples(), 123u);
  EXPECT_DOUBLE_EQ(s.error_rate(), 0.25);
  EXPECT_DOUBLE_EQ(s.t_record(), 0.002);
}

TEST(Scenario, FromMuBuildsZeroInteractionMatrix) {
  const Scenario s = Scenario::from_mu({1.5, 1.0, 0.5});
  EXPECT_EQ(s.n(), 3u);
  EXPECT_DOUBLE_EQ(s.params().mu(0), 1.5);
  EXPECT_DOUBLE_EQ(s.params().total_lambda(), 0.0);
}

TEST(Scenario, RuntimeConfigProjection) {
  RuntimeWorkload w;
  w.steps = 777;
  w.message_probability = 0.5;
  w.rp_probability = 0.125;
  w.rb_alternates = 3;
  w.sync_period_steps = 42;
  const Scenario s = Scenario::symmetric(5, 1.0, 1.0)
                         .scheme(SchemeKind::kPseudoRecoveryPoints)
                         .seed(7)
                         .at_failure_probability(0.125)
                         .scoped_prp(true)
                         .workload(w);
  const RuntimeConfig cfg = s.runtime_config();
  EXPECT_EQ(cfg.num_processes, 5u);
  EXPECT_EQ(cfg.scheme, SchemeKind::kPseudoRecoveryPoints);
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_EQ(cfg.steps, 777u);
  EXPECT_DOUBLE_EQ(cfg.message_probability, 0.5);
  EXPECT_DOUBLE_EQ(cfg.rp_probability, 0.125);
  EXPECT_DOUBLE_EQ(cfg.at_failure_probability, 0.125);
  EXPECT_EQ(cfg.rb_alternates, 3u);
  EXPECT_EQ(cfg.sync_period_steps, 42u);
  EXPECT_TRUE(cfg.scoped_prp);
}

TEST(Scenario, SyncSimParamsProjection) {
  SyncPolicy policy;
  policy.strategy = SyncStrategy::kSavedStates;
  policy.saved_threshold = 17;
  const Scenario s = Scenario::from_mu({2.0, 1.0})
                         .scheme(SchemeKind::kSynchronized)
                         .sync_policy(policy)
                         .error_rate(0.3);
  const SyncSimParams sp = s.sync_sim_params();
  ASSERT_EQ(sp.mu.size(), 2u);
  EXPECT_DOUBLE_EQ(sp.mu[0], 2.0);
  EXPECT_EQ(sp.strategy, SyncStrategy::kSavedStates);
  EXPECT_EQ(sp.saved_threshold, 17u);
  EXPECT_DOUBLE_EQ(sp.error_rate, 0.3);
}

TEST(Scenario, PrpSimParamsProjection) {
  const Scenario s = Scenario::symmetric(3, 1.0, 1.0)
                         .scheme(SchemeKind::kPseudoRecoveryPoints)
                         .t_record(1e-4)
                         .error_rate(0.25)
                         .scoped_prp(true)
                         .prp_sync_period(4.0);
  const PrpSimParams sp = s.prp_sim_params();
  EXPECT_DOUBLE_EQ(sp.t_record, 1e-4);
  EXPECT_DOUBLE_EQ(sp.error_rate, 0.25);
  EXPECT_FALSE(sp.affects_everyone);
  EXPECT_DOUBLE_EQ(sp.sync_period, 4.0);
}

TEST(Scenario, StreamsDefaultToOneAndStayOutOfTheLabel) {
  const Scenario base = Scenario::symmetric(3, 1.0, 1.0).seed(42);
  EXPECT_EQ(base.streams(), 1u);
  // streams=1 must keep the exact pre-stream label (golden output pins
  // these strings); only K > 1 may appear.
  EXPECT_EQ(base.label().find("streams"), std::string::npos);
  const Scenario streamed = Scenario(base).streams(4);
  EXPECT_NE(streamed.label().find("streams=4"), std::string::npos);
}

// Labels are persisted - in goldens, journals and merged shard output -
// so their exact bytes are part of the format.  The literals are what a
// default-formatted std::ostream prints; any change to them breaks
// --resume of older journals.
TEST(Scenario, LabelBytesArePinned) {
  EXPECT_EQ(Scenario::symmetric(3, 1.0, 1.0)
                .scheme(SchemeKind::kSynchronized)
                .seed(42)
                .label(),
            "sync n=3 mu=(1,1,1) lambda=(1,1,1) rho=1 seed=42");
  EXPECT_EQ(Scenario::symmetric(4, 1.5, 0.25)
                .scheme(SchemeKind::kPseudoRecoveryPoints)
                .seed(7)
                .label(),
            "prp n=4 mu=(1.5,1.5,1.5,1.5) "
            "lambda=(0.25,0.25,0.25,0.25,0.25,0.25) rho=0.25 seed=7");
  // Non-symmetric rates that exercise every %.6g branch: an exponent
  // below -4, six significant digits, a tie rounded to even (123456.5),
  // an exponent above the precision; plus the widest seed and a stream
  // count (lambda is listed in (1,2), (1,3), (2,3) order).
  EXPECT_EQ(Scenario(ProcessSetParams::three(1e-5, 2.0 / 3.0, 123456.5,
                                             /*l12=*/1e16, /*l23=*/0.1,
                                             /*l13=*/3.0))
                .seed(std::numeric_limits<std::uint64_t>::max())
                .streams(4)
                .label(),
            "async n=3 mu=(1e-05,0.666667,123456) lambda=(1e+16,3,0.1) "
            "rho=8.09998e+10 seed=18446744073709551615 streams=4");
  EXPECT_EQ(Scenario::symmetric(2, 1.0, 0.5).seed(0).label(),
            "async n=2 mu=(1,1) lambda=(0.5) rho=0.25 seed=0");
}

// Reference for describe()'s byte contract: a default-formatted
// std::ostringstream.
std::string ostream_describe(const ProcessSetParams& p) {
  std::ostringstream os;
  os << "n=" << p.n() << " mu=(";
  for (std::size_t i = 0; i < p.n(); ++i) {
    os << (i ? "," : "") << p.mu(i);
  }
  os << ") lambda=(";
  bool first = true;
  for (std::size_t i = 0; i < p.n(); ++i) {
    for (std::size_t j = i + 1; j < p.n(); ++j) {
      os << (first ? "" : ",") << p.lambda(i, j);
      first = false;
    }
  }
  os << ") rho=" << p.rho();
  return os.str();
}

TEST(Scenario, DescribeMatchesTheOstreamFormatter) {
  std::mt19937_64 rng(0x1abe1);
  // Any non-negative double (random bit patterns cover subnormals, huge
  // exponents and infinity) mixed with values near rounding boundaries.
  const std::vector<double> awkward = {
      0.0,     1e16,  999999.5,  9999995.0, 123456.5,
      0.0001,  1e-5,  9.999995e-5, 2.0 / 3.0, 5e-324,
      1e300,   0.5,   std::numeric_limits<double>::infinity()};
  const auto rate = [&rng, &awkward](bool positive) {
    for (;;) {
      double v;
      if (rng() % 4 == 0) {
        v = awkward[rng() % awkward.size()];
      } else {
        const std::uint64_t bits = rng() & ~(std::uint64_t{1} << 63);
        std::memcpy(&v, &bits, sizeof v);
      }
      if (!std::isnan(v) && (!positive || v > 0.0)) {
        return v;
      }
    }
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = 1 + rng() % 6;
    std::vector<double> mu(n);
    std::vector<double> lambda(n * n, 0.0);
    for (double& m : mu) {
      m = rate(/*positive=*/true);
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        lambda[i * n + j] = lambda[j * n + i] = rate(/*positive=*/false);
      }
    }
    const ProcessSetParams p(std::move(mu), std::move(lambda));
    ASSERT_EQ(p.describe(), ostream_describe(p)) << "trial " << trial;
  }
}

// Reference for label()'s byte contract, every value formatted on its own.
std::string ostream_label(const Scenario& s) {
  static const char* const tags[] = {"async", "sync", "prp"};
  std::ostringstream os;
  os << tags[static_cast<int>(s.scheme())] << ' '
     << ostream_describe(s.params()) << " seed=" << s.seed();
  if (s.streams() > 1) {
    os << " streams=" << s.streams();
  }
  return os.str();
}

ProcessSetParams params_from(const std::vector<double>& mu,
                             const std::vector<double>& upper) {
  const std::size_t n = mu.size();
  std::vector<double> lambda(n * n, 0.0);
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++k) {
      lambda[i * n + j] = lambda[j * n + i] = upper[k];
    }
  }
  return ProcessSetParams(mu, std::move(lambda));
}

TEST(Scenario, DescribeFormatsRunsOfEqualRatesByteForByte) {
  // describe() formats a rate only when its bits differ from the previous
  // rate's; the text must still be what formatting each value gives.
  const double sub = 5e-324;                 // smallest subnormal
  const double sub_max = 2.2250738585072009e-308;  // largest subnormal
  struct Case {
    std::vector<double> mu;
    std::vector<double> upper;  // lambda_ij for i < j, row-major
  };
  const std::vector<Case> cases = {
      // Symmetric.
      {{1, 1, 1, 1, 1, 1, 1}, std::vector<double>(21, 0.5)},
      {{2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0}, {1e-5, 1e-5, 1e-5}},
      // Asymmetric: runs of repeats broken by other values.
      {{1, 1, 2, 2, 1}, {0.5, 0.5, 0.25, 0.25, 0.5, 3, 3, 3, 0.5, 0.5}},
      {{0.1, 0.1, 0.2, 0.1}, {7, 7, 8, 7, 8, 8}},
      // All distinct.
      {{1, 2, 3, 4, 5}, {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}},
      // Subnormals, repeated and not.
      {{sub, sub, sub_max, sub_max}, {sub, sub, sub_max, sub_max, sub, 0.0}},
      // Adjacent -0.0 and 0.0 compare == but print differently.
      {{1, 1, 1, 1}, {0.0, -0.0, -0.0, 0.0, -0.0, 0.0}},
      {{1, 1, 1}, {-0.0, -0.0, -0.0}},
      {{1e300, 1e300, 1e-300}, {0.0, -0.0, 0.0}},
      // One process: no lambda at all.
      {{0.75}, {}},
  };
  for (const Case& c : cases) {
    const ProcessSetParams p = params_from(c.mu, c.upper);
    const std::string want = ostream_describe(p);
    EXPECT_EQ(p.describe(), want);
    std::string appended = "prefix ";
    p.describe_into(appended);
    EXPECT_EQ(appended, "prefix " + want);
    for (SchemeKind scheme :
         {SchemeKind::kAsynchronous, SchemeKind::kSynchronized,
          SchemeKind::kPseudoRecoveryPoints}) {
      for (std::size_t streams : {std::size_t{1}, std::size_t{3}}) {
        const Scenario s = Scenario(p)
                               .scheme(scheme)
                               .seed(0xfedcba9876543210ULL)
                               .streams(streams);
        EXPECT_EQ(s.label(), ostream_label(s));
      }
    }
  }
  // The -0.0 / 0.0 case spelled out, so the reference cannot hide it.
  EXPECT_EQ(params_from({1, 1, 1}, {0.0, -0.0, 0.0}).describe(),
            "n=3 mu=(1,1,1) lambda=(0,-0,0) rho=0");
}

// rho = C(n,2) lambda / (n mu) => lambda = 2 rho mu / (n - 1), the fig5
// grid arithmetic of the benches.
double lambda_for_rho(std::size_t n, double rho) {
  return 2.0 * rho / (static_cast<double>(n) - 1.0);
}

TEST(Scenario, GridLabelsMatchTheReference) {
  std::vector<Scenario> cells;
  // The Figure 5 grid: three rho levels, n = 2..9, per-n seeds, and the
  // same cells split into streams.
  for (double rho : {0.5, 1.0, 2.0}) {
    for (std::size_t n = 2; n <= 9; ++n) {
      const Scenario cell =
          Scenario::symmetric(n, 1.0, lambda_for_rho(n, rho)).seed(1 + n);
      cells.push_back(cell);
      cells.push_back(Scenario(cell).streams(4));
    }
  }
  // An analytic grid in the style of the sweep benchmark's: 40 rho levels
  // drawn at random, n = 2..7, every scheme, a random seed.
  std::mt19937_64 rng(5);
  for (int level = 0; level < 40; ++level) {
    const double rho =
        0.25 + 2.75 * static_cast<double>(rng() >> 11) * 0x1.0p-53;
    const std::uint64_t seed = rng();
    for (std::size_t n = 2; n <= 7; ++n) {
      for (SchemeKind scheme :
           {SchemeKind::kAsynchronous, SchemeKind::kSynchronized,
            SchemeKind::kPseudoRecoveryPoints}) {
        cells.push_back(Scenario::symmetric(n, 1.0, lambda_for_rho(n, rho))
                            .scheme(scheme)
                            .seed(seed));
      }
    }
  }
  for (const Scenario& cell : cells) {
    ASSERT_EQ(cell.label(), ostream_label(cell));
  }
}

TEST(ScenarioDeathTest, LoudMisuse) {
  EXPECT_DEATH(Scenario::symmetric(3, 1.0, 1.0).error_rate(-0.1),
               "non-negative");
  EXPECT_DEATH(Scenario::symmetric(3, 1.0, 1.0).samples(0), "positive");
  EXPECT_DEATH(Scenario::symmetric(3, 1.0, 1.0).streams(0), "positive");
  // The PRP simulator runs to a failure count; a zero error rate would
  // never terminate, so the projection refuses it.
  EXPECT_DEATH(Scenario::symmetric(3, 1.0, 1.0)
                   .scheme(SchemeKind::kPseudoRecoveryPoints)
                   .prp_sim_params(),
               "error rate");
}

}  // namespace
}  // namespace rbx

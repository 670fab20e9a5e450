// Integration tests: the analytic models (model/), the Markov engine
// (markov/) and the Monte-Carlo simulators (des/) validate one another
// through independent computations of the same quantities.
#include <cmath>

#include <gtest/gtest.h>

#include "core/api.h"
#include "markov/dtmc.h"
#include "numerics/quadrature.h"
#include "support/rng.h"

namespace rbx {
namespace {

// E[X] computed through a *different* engine path: the expected number of
// steps of the uniformized DTMC before absorption, divided by the
// uniformization rate.  (Mean sojourn identity: E[X] = E[steps] / Lambda.)
TEST(CrossValidation, MeanIntervalViaUniformizedStepCounts) {
  const ProcessSetParams cases[] = {
      ProcessSetParams::three(1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
      ProcessSetParams::three(1.5, 1.0, 0.5, 1.5, 0.5, 1.0),
      ProcessSetParams::three(0.6, 0.45, 0.45, 0.75, 0.75, 0.75),
  };
  for (const auto& params : cases) {
    AsyncRbModel model(params);
    const Dtmc dtmc = model.chain().uniformized_dtmc();
    std::vector<double> alpha(model.num_states(), 0.0);
    alpha[model.entry_state()] = 1.0;
    std::vector<bool> absorbing(model.num_states(), false);
    absorbing[model.absorbing_state()] = true;
    const auto visits = dtmc.expected_visits(alpha, absorbing);
    double steps = 0.0;
    for (double v : visits) {
      steps += v;
    }
    EXPECT_NEAR(steps / model.chain().uniformization_rate(),
                model.mean_interval(), 1e-8)
        << params.describe();
  }
}

// P(line-forming RP belongs to P_i) validated by direct simulation of the
// mask process - an implementation independent of the sojourn-based
// formula in AsyncRbModel.
TEST(CrossValidation, AbsorbingRpProbabilityBySimulation) {
  const auto params = ProcessSetParams::three(1.5, 1.0, 0.5, 1.0, 0.5, 1.5);
  AsyncRbModel model(params);

  Rng rng(314159);
  const std::size_t n = 3;
  std::vector<double> weights;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    weights.push_back(params.mu(i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      weights.push_back(params.lambda(i, j));
      pairs.push_back({i, j});
    }
  }
  const CategoricalTable events(weights);
  std::vector<std::size_t> final_by(n, 0);
  const std::size_t kLines = 60000;
  const std::size_t full = (1u << n) - 1;
  bool at_entry = true;
  std::size_t mask = full;
  std::size_t formed = 0;
  while (formed < kLines) {
    const std::size_t k = rng.categorical(events);
    if (k < n) {
      const std::size_t bit = std::size_t{1} << k;
      if (at_entry || (!(mask & bit) && (mask | bit) == full)) {
        ++final_by[k];
        ++formed;
        at_entry = true;
        mask = full;
      } else if (!(mask & bit)) {
        mask |= bit;
      }
    } else {
      const auto [a, b] = pairs[k - n];
      const std::size_t bits = (std::size_t{1} << a) | (std::size_t{1} << b);
      mask = (at_entry ? full : mask) & ~bits;
      at_entry = false;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double p_mc =
        static_cast<double>(final_by[i]) / static_cast<double>(kLines);
    EXPECT_NEAR(p_mc, model.absorbing_rp_probability(i), 0.01) << "i=" << i;
  }
}

// Phase-type mean and variance vs. numeric integrals of the density.
TEST(CrossValidation, IntervalMomentsViaQuadrature) {
  const auto params = ProcessSetParams::three(1.0, 1.0, 1.0, 0.5, 0.5, 0.5);
  AsyncRbModel model(params);
  const auto mean = integrate_to_infinity(
      [&model](double t) { return t * model.interval_pdf(t); }, 0.0, 1.0,
      1e-9);
  EXPECT_NEAR(mean.value, model.mean_interval(), 1e-5);
  const auto m2 = integrate_to_infinity(
      [&model](double t) { return t * t * model.interval_pdf(t); }, 0.0, 1.0,
      1e-9);
  EXPECT_NEAR(m2.value - mean.value * mean.value, model.variance_interval(),
              1e-4);
}

// The sync simulator and the closed form across random rate sets.
class SyncCrossTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SyncCrossTest, LossAgreesWithClosedForm) {
  Rng rng(GetParam() * 2654435761u);
  const std::size_t n = 2 + rng.uniform_index(4);
  std::vector<double> mu(n);
  for (auto& m : mu) {
    m = rng.uniform(0.2, 3.0);
  }
  SyncRbModel model(mu);
  SyncSimParams sp;
  sp.mu = mu;
  sp.strategy = SyncStrategy::kElapsedTime;
  sp.elapsed_threshold = 1.0;
  SyncRbSimulator sim(sp, GetParam());
  const SyncSimResult r = sim.run(20000);
  EXPECT_NEAR(r.loss.mean(), model.mean_loss(),
              5.0 * r.loss.ci_half_width() / 1.96 + 1e-3)
      << "n=" << n;
  EXPECT_NEAR(r.max_wait.mean(), model.mean_max_wait(),
              5.0 * r.max_wait.ci_half_width() / 1.96 + 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyncCrossTest, ::testing::Range(1u, 9u));

// The DES and the analytic model across a grid of (mu-spread, rho).
struct GridCase {
  double mu_hi;
  double rho;
};

class AsyncGridTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(AsyncGridTest, SimulatorTracksModel) {
  const GridCase& g = GetParam();
  // Three processes with geometric mu spread and uniform lambda at the
  // requested rho.
  const double mu2 = 1.0;
  const double mu1 = g.mu_hi;
  const double mu3 = 1.0 / g.mu_hi;
  const double total_mu = mu1 + mu2 + mu3;
  const double lambda = g.rho * total_mu / 3.0;
  const auto params =
      ProcessSetParams::three(mu1, mu2, mu3, lambda, lambda, lambda);
  AsyncRbModel model(params);
  AsyncRbSimulator sim(params, 1234 + static_cast<std::uint64_t>(
                                          g.mu_hi * 100 + g.rho * 10));
  const AsyncSimResult r = sim.run_lines(30000);
  EXPECT_NEAR(r.interval.mean(), model.mean_interval(),
              5.0 * r.interval.ci_half_width() / 1.96)
      << params.describe();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(r.rp_incl_final[i].mean(),
                model.expected_rp_count(i).wald,
                5.0 * r.rp_incl_final[i].ci_half_width() / 1.96)
        << params.describe() << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AsyncGridTest,
    ::testing::Values(GridCase{1.0, 0.25}, GridCase{1.0, 1.0},
                      GridCase{2.0, 0.5}, GridCase{2.0, 1.5},
                      GridCase{4.0, 1.0}));

// PRP model bound vs simulator: the mean PRP rollback distance stays
// within a small factor of E[sup y_i] across parameter regimes.
TEST(CrossValidation, PrpDistanceTracksBound) {
  for (double lambda : {0.5, 1.0, 2.0}) {
    const auto params = ProcessSetParams::symmetric(3, 1.0, lambda);
    PrpModel model(params, 1e-4);
    PrpSimParams sp;
    sp.error_rate = 0.2;
    PrpSimulator sim(params, sp, 99);
    const PrpSimResult r = sim.run(1500);
    EXPECT_GT(r.prp_distance.mean(), 0.25 * model.mean_rollback_bound());
    EXPECT_LT(r.prp_distance.mean(), 3.0 * model.mean_rollback_bound());
    EXPECT_EQ(r.contaminated_restarts, 0u);
  }
}

}  // namespace
}  // namespace rbx

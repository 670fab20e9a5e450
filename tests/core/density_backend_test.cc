// The Figure 6 density port onto the Scenario/EvalBackend seam: the
// registered backends reproduce the model and simulator layers exactly,
// and a density sweep is bitwise identical across execution modes - the
// property that lets fig6_density run on --threads/--workers/--fleet.
#include "core/density_backend.h"

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/dispatch.h"
#include "core/executor.h"
#include "core/lane.h"
#include "des/async_sim.h"
#include "fleet/lane.h"
#include "model/async_model.h"
#include "net/worker.h"
#include "support/stats.h"

namespace rbx {
namespace {

Scenario fig6_case(double mu1, double mu2, double mu3, double l) {
  return Scenario::symmetric(3, 1.0, 1.0)
      .params(ProcessSetParams::three(mu1, mu2, mu3, l, l, l))
      .seed(99)
      .samples(2000);
}

TEST(DensityBackendTest, BackendsAreRegistered) {
  EXPECT_EQ(find_backend("density-analytic"), &density_analytic_backend());
  EXPECT_EQ(find_backend("density-mc"), &density_monte_carlo_backend());
}

TEST(DensityBackendTest, AnalyticMatchesTheModelLayerBitwise) {
  const Scenario s = fig6_case(0.6, 0.45, 0.45, 0.5);
  const ResultSet r = density_analytic_backend().evaluate(s);

  AsyncRbModel model(s.params());
  const std::vector<double> grid =
      model.interval().pdf_grid(kDensityTMax, kDensityPoints);
  ASSERT_EQ(grid.size(), kDensityPoints);
  for (std::size_t i = 0; i < kDensityPoints; ++i) {
    EXPECT_EQ(r.value("density_f_" + std::to_string(i)), grid[i]) << i;
  }
  // The paper's impulse: f_X(0) = sum mu.
  EXPECT_NEAR(r.value("density_f0"), s.params().total_mu(), 1e-9);
  EXPECT_EQ(r.value("mean_interval_x"), model.mean_interval());
}

TEST(DensityBackendTest, MonteCarloMatchesTheSimulatorLayerBitwise) {
  const Scenario s = fig6_case(1.0, 1.0, 1.0, 1.0);
  const ResultSet r = density_monte_carlo_backend().evaluate(s);

  AsyncRbSimulator sim(s.params(), s.seed());
  const AsyncSimResult ref = sim.run_lines(s.samples());
  Histogram h(0.0, kDensityTMax, kDensityPoints - 1);
  for (double x : ref.interval.samples()) {
    h.add(x);
  }
  for (std::size_t i = 0; i < h.bins(); ++i) {
    const Metric& m = r.metric("density_bin_" + std::to_string(i));
    EXPECT_EQ(m.value, h.density(i)) << "bin " << i;
    EXPECT_EQ(m.count, h.bin_count(i)) << "bin " << i;
  }
  EXPECT_EQ(r.value("density_samples"), static_cast<double>(h.total()));
}

TEST(DensityBackendTest, SupportsOnlyWhatItCanEvaluate)
{
  const Scenario async = fig6_case(1.0, 1.0, 1.0, 1.0);
  EXPECT_TRUE(density_analytic_backend().supports(async));
  EXPECT_TRUE(density_monte_carlo_backend().supports(async));
  const Scenario sync =
      Scenario::symmetric(3, 1.0, 1.0).scheme(SchemeKind::kSynchronized);
  EXPECT_FALSE(density_analytic_backend().supports(sync));
  EXPECT_FALSE(density_monte_carlo_backend().supports(sync));
  // The full phase-type chain caps n.
  EXPECT_FALSE(
      density_analytic_backend().supports(Scenario::symmetric(13, 1.0, 1.0)));
}

TEST(DensityBackendTest, SweepIsBitwiseIdenticalAcrossExecutionModes) {
  // The fig6 plan (analytic + mc under a prefix), on the fig6 grid,
  // serial vs 4 threads vs a loopback TCP worker: per-cell seeds make
  // every mode print the same bytes.
  const EvalPlan plan{{EvalStep{"density-analytic", ""},
                       EvalStep{"density-mc", "mc_"}}};
  const PlanFn plan_fn = [&plan](const Scenario&, std::size_t) {
    return plan;
  };
  std::vector<Scenario> cells = {fig6_case(1.0, 1.0, 1.0, 1.0),
                                 fig6_case(0.6, 0.45, 0.45, 0.5),
                                 fig6_case(0.6, 0.45, 0.45, 0.75)};

  const CellFn local = [&plan](const Scenario& s, std::size_t) {
    return evaluate_plan(plan, s);
  };
  ThreadLane one(1);
  ThreadLane four(4);
  const auto serial = DispatchCore({&one}).run(cells, local).outcomes;
  const auto threaded = DispatchCore({&four}).run(cells, local).outcomes;

  net::WorkerOptions wopts;
  wopts.port = 0;
  wopts.once = true;
  wopts.quiet = true;
  net::WorkerServer worker(wopts);
  std::thread worker_thread([&worker]() { worker.serve(); });
  std::vector<CellOutcome> remote;
  {
    fleet::RemoteLaneOptions topts;
    topts.endpoints = {{"127.0.0.1", worker.port()}};
    topts.quiet = true;
    fleet::RemoteLane tcp(std::move(topts));
    DispatchOptions options;
    options.quiet = true;
    DispatchCore core({&tcp}, options);
    core.set_plan_fn(plan_fn);
    remote = core.run(cells, CellFn()).outcomes;
  }
  worker_thread.join();

  ASSERT_EQ(serial.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(serial[i].ok());
    ASSERT_TRUE(threaded[i].ok());
    ASSERT_TRUE(remote[i].ok()) << remote[i].error;
    EXPECT_EQ(serial[i].result, threaded[i].result) << "cell " << i;
    EXPECT_EQ(serial[i].result, remote[i].result) << "cell " << i;
  }
}

}  // namespace
}  // namespace rbx

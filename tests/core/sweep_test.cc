#include "core/sweep.h"

#include <set>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/dispatch.h"
#include "core/lane.h"

namespace rbx {
namespace {

TEST(DeriveCellSeed, DeterministicAndDecorrelated) {
  EXPECT_EQ(derive_cell_seed(42, 0), derive_cell_seed(42, 0));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t cell = 0; cell < 1000; ++cell) {
    seeds.insert(derive_cell_seed(42, cell));
  }
  EXPECT_EQ(seeds.size(), 1000u);  // no collisions across cells
  EXPECT_NE(derive_cell_seed(42, 0), derive_cell_seed(43, 0));
}

TEST(SweepGridTest, ExpandsCartesianProductRowMajor) {
  const auto apply_samples = [](Scenario& s, double v) {
    s.samples(static_cast<std::size_t>(v));
  };
  const auto apply_error = [](Scenario& s, double v) { s.error_rate(v); };
  SweepGrid grid(Scenario::symmetric(3, 1.0, 1.0));
  grid.axis({100, 200}, apply_samples)
      .axis({0.0, 0.1, 0.2}, apply_error)
      .schemes({SchemeKind::kAsynchronous, SchemeKind::kSynchronized});
  EXPECT_EQ(grid.cells(), 12u);

  const std::vector<Scenario> cells = grid.expand(7);
  ASSERT_EQ(cells.size(), 12u);
  // First axis slowest, schemes fastest.
  EXPECT_EQ(cells[0].samples(), 100u);
  EXPECT_EQ(cells[0].scheme(), SchemeKind::kAsynchronous);
  EXPECT_EQ(cells[1].scheme(), SchemeKind::kSynchronized);
  EXPECT_DOUBLE_EQ(cells[2].error_rate(), 0.1);
  EXPECT_EQ(cells[6].samples(), 200u);
  // Per-cell seeds follow the documented derivation.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].seed(), derive_cell_seed(7, i));
  }
}

TEST(SweepGridTest, NoAxesExpandsToSingleCell) {
  const std::vector<Scenario> cells =
      SweepGrid(Scenario::symmetric(2, 1.0, 1.0)).expand(3);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].seed(), derive_cell_seed(3, 0));
}

std::vector<Scenario> mc_grid(std::uint64_t master_seed) {
  const auto apply_n = [](Scenario& s, double n) {
    s.params(ProcessSetParams::symmetric(static_cast<std::size_t>(n), 1.0,
                                         1.0));
  };
  return SweepGrid(Scenario::symmetric(2, 1.0, 1.0).samples(400))
      .axis({2, 3, 4}, apply_n)
      .schemes({SchemeKind::kAsynchronous, SchemeKind::kSynchronized})
      .expand(master_seed);
}

// Evaluates `cells` on a `threads`-wide ThreadLane; every cell must
// succeed.
std::vector<ResultSet> run_threads(std::size_t threads,
                                   const std::vector<Scenario>& cells,
                                   const CellFn& fn) {
  ThreadLane lane(threads);
  std::vector<ResultSet> out;
  for (CellOutcome& outcome : DispatchCore({&lane}).run(cells, fn).outcomes) {
    EXPECT_TRUE(outcome.ok()) << outcome.error;
    out.push_back(std::move(outcome.result));
  }
  return out;
}

const CellFn kMonteCarlo = [](const Scenario& s, std::size_t) {
  return monte_carlo_backend().evaluate(s);
};

TEST(SweepDeterminismTest, SameGridAndSeedIsBitwiseIdentical) {
  const auto a = run_threads(2, mc_grid(11), kMonteCarlo);
  const auto b = run_threads(2, mc_grid(11), kMonteCarlo);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "cell " << i;
  }
  // A different master seed changes every Monte-Carlo cell.
  const auto c = run_threads(2, mc_grid(12), kMonteCarlo);
  EXPECT_NE(a[0].value("mean_interval_x"), c[0].value("mean_interval_x"));
}

TEST(SweepDeterminismTest, ThreadCountDoesNotChangeResults) {
  const auto cells = mc_grid(17);
  const auto serial = run_threads(1, cells, kMonteCarlo);
  const auto parallel = run_threads(8, cells, kMonteCarlo);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "cell " << i;
  }
}

TEST(SweepDeterminismTest, CellFnReceivesIndexAndOrderIsPreserved) {
  std::vector<Scenario> cells(5, Scenario::symmetric(2, 1.0, 1.0));
  const auto results =
      run_threads(4, cells, [](const Scenario& s, std::size_t index) {
        ResultSet out("test", s.label());
        out.set("index", static_cast<double>(index));
        return out;
      });
  ASSERT_EQ(results.size(), 5u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i].value("index"), static_cast<double>(i));
  }
}

TEST(SweepDeterminismTest, ThreadLaneDefaultsToHardwareConcurrency) {
  EXPECT_GE(ThreadLane(0).threads(), 1u);
  EXPECT_EQ(ThreadLane(3).threads(), 3u);
  EXPECT_TRUE(run_threads(2, {}, kMonteCarlo).empty());
}

}  // namespace
}  // namespace rbx

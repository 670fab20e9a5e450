// BenchReport: the BENCH_*.json schema round-trips, journal sweep-end
// records (a shard's counting only its owned cells) import as synthetic
// kernels, and compare_reports flags exactly the kernels that slowed past
// the threshold.
#include "perf/report.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/experiment.h"
#include "core/result.h"
#include "core/sweep.h"
#include "perf/json.h"
#include "recov/journal.h"

namespace rbx {
namespace perf {
namespace {

KernelStats stats(const std::string& name, double ns) {
  KernelStats s;
  s.name = name;
  s.layer = "test";
  s.ns_median = ns;
  s.ns_p10 = ns * 0.9;
  s.ns_p90 = ns * 1.1;
  s.reps = 100;
  s.intervals = 5;
  s.threads = 1;
  return s;
}

TEST(BenchReportTest, JsonRoundTrip) {
  BenchReport r;
  r.label = "pr7";
  r.timestamp = "2026-08-08T00:00:00Z";
  r.build_flags = build_flags_description();
  r.threads = 2;
  r.kernels.push_back(stats("sparse_spmv_left", 6225.8437));
  r.kernels.push_back(stats("wire_encode_scenario", 208.5));
  SweepRecord sweep;
  sweep.source = "fig5.rbxj";
  sweep.sweep = 1;
  sweep.committed_cells = 96;
  sweep.evaluated_cells = 96;
  sweep.wall_ms = 1200;
  sweep.cells_per_sec = 80.0;
  r.sweeps.push_back(sweep);

  const BenchReport back = BenchReport::from_json(r.to_json());
  EXPECT_EQ(back.label, r.label);
  EXPECT_EQ(back.timestamp, r.timestamp);
  EXPECT_EQ(back.build_flags, r.build_flags);
  EXPECT_EQ(back.threads, r.threads);
  ASSERT_EQ(back.kernels.size(), 2u);
  EXPECT_EQ(back.kernels[0].name, "sparse_spmv_left");
  EXPECT_EQ(back.kernels[0].ns_median, 6225.8437);  // bitwise via %.17g
  EXPECT_EQ(back.kernels[0].reps, 100u);
  ASSERT_EQ(back.sweeps.size(), 1u);
  EXPECT_EQ(back.sweeps[0].source, "fig5.rbxj");
  EXPECT_EQ(back.sweeps[0].wall_ms, 1200u);
  EXPECT_EQ(back.sweeps[0].cells_per_sec, 80.0);
}

TEST(BenchReportTest, WrongSchemaRejected) {
  EXPECT_THROW(BenchReport::from_json("{\"schema\": \"other\"}"),
               json::Error);
  EXPECT_THROW(BenchReport::from_json("[]"), json::Error);
  EXPECT_THROW(BenchReport::from_json("not json"), json::Error);
}

TEST(BenchReportTest, SaveLoad) {
  const std::string path = testing::TempDir() + "bench_report_test.json";
  BenchReport r;
  r.label = "disk";
  r.kernels.push_back(stats("k", 10.0));
  r.save(path);
  const BenchReport back = BenchReport::load(path);
  EXPECT_EQ(back.label, "disk");
  ASSERT_EQ(back.kernels.size(), 1u);
  EXPECT_EQ(back.kernels[0].ns_median, 10.0);
  std::remove(path.c_str());
}

TEST(BenchReportTest, ImportJournalSweepEnds) {
  const std::string path = testing::TempDir() + "bench_import_test.rbxj";
  std::remove(path.c_str());
  {
    recov::JournalWriter::Options jopts;
    jopts.truncate = true;
    recov::JournalWriter w(path, jopts);
    w.sweep_begin(0, 0xabc, 4, "test sweep");
    ResultSet cell("analytic", "cell");
    cell.set("m", 1.0);
    for (std::uint64_t i = 0; i < 4; ++i) {
      w.cell_committed(0, i, cell);
    }
    recov::SweepEndStats stats;
    stats.committed_cells = 4;
    stats.evaluated_cells = 4;
    stats.wall_ms = 20;
    stats.cells_per_sec = 200.0;
    w.sweep_end(0, stats);
    // A second sweep that never ends must not import (its counters were
    // lost with the crash).
    w.sweep_begin(1, 0xdef, 8, "unfinished");
  }

  BenchReport r;
  import_journal(&r, path, "trial");
  ASSERT_EQ(r.sweeps.size(), 1u);
  EXPECT_EQ(r.sweeps[0].source, "trial");
  EXPECT_EQ(r.sweeps[0].sweep, 0u);
  EXPECT_EQ(r.sweeps[0].evaluated_cells, 4u);
  EXPECT_EQ(r.sweeps[0].wall_ms, 20u);
  // The synthetic kernel rides the compare machinery: per-evaluated-cell
  // wall time in ns.
  ASSERT_EQ(r.kernels.size(), 1u);
  EXPECT_EQ(r.kernels[0].name, "journal:trial:sweep0");
  EXPECT_EQ(r.kernels[0].layer, "sweep");
  EXPECT_EQ(r.kernels[0].ns_median, 20.0 * 1e6 / 4.0);
  std::remove(path.c_str());
}

TEST(BenchReportTest, ImportShardJournalCountsOwnedCells) {
  // What perf_bench --from-journal reads from a --shard=0/2 run of an
  // 8-cell grid: the shard's 4 owned cells, not the grid's 8 - and after
  // a --resume of the finished shard, 4 committed and 0 evaluated.
  const std::string path = testing::TempDir() + "bench_import_shard.rbxj";
  std::remove(path.c_str());
  const auto apply_n = [](Scenario& s, double n) {
    s.params(ProcessSetParams::symmetric(static_cast<std::size_t>(n), 1.0,
                                         1.0));
  };
  const std::vector<Scenario> cells =
      SweepGrid(Scenario::symmetric(2, 1.0, 1.0))
          .axis({2, 3, 4, 5}, apply_n)
          .schemes({SchemeKind::kAsynchronous, SchemeKind::kSynchronized})
          .expand(7);
  const auto run_shard = [&cells](std::string journal_flag) {
    std::string prog = "bench";
    std::string threads = "--threads=2";
    std::string shard = "--shard=0/2";
    char* argv[] = {prog.data(), threads.data(), shard.data(),
                    journal_flag.data()};
    SweepRunner runner(ExperimentOptions::parse(4, argv, 100, 5));
    EXPECT_FALSE(runner.run(cells, analytic_backend()).has_value());
  };
  run_shard("--journal=" + path);
  BenchReport fresh;
  import_journal(&fresh, path, "shard0");
  ASSERT_EQ(fresh.sweeps.size(), 1u);
  EXPECT_EQ(fresh.sweeps[0].committed_cells, 4u);
  EXPECT_EQ(fresh.sweeps[0].evaluated_cells, 4u);
  ASSERT_EQ(fresh.kernels.size(), 1u);
  EXPECT_EQ(fresh.kernels[0].reps, 4u);

  run_shard("--resume=" + path);
  BenchReport resumed;
  import_journal(&resumed, path, "shard0");
  ASSERT_EQ(resumed.sweeps.size(), 1u);
  EXPECT_EQ(resumed.sweeps[0].committed_cells, 4u);
  EXPECT_EQ(resumed.sweeps[0].evaluated_cells, 0u);
  EXPECT_TRUE(resumed.kernels.empty());  // nothing evaluated, no kernel
  std::remove(path.c_str());
}

TEST(CompareReportsTest, FlagsOnlyPastThreshold) {
  BenchReport old_report;
  old_report.kernels.push_back(stats("steady", 100.0));
  old_report.kernels.push_back(stats("slower", 100.0));
  old_report.kernels.push_back(stats("faster", 100.0));
  old_report.kernels.push_back(stats("dropped", 100.0));
  BenchReport new_report;
  new_report.kernels.push_back(stats("steady", 104.0));
  new_report.kernels.push_back(stats("slower", 140.0));
  new_report.kernels.push_back(stats("faster", 40.0));
  new_report.kernels.push_back(stats("added", 1.0));

  const CompareOutcome outcome =
      compare_reports(old_report, new_report, 25.0);
  EXPECT_TRUE(outcome.regressed);
  ASSERT_EQ(outcome.rows.size(), 3u);
  // Worst ratio first.
  EXPECT_EQ(outcome.rows[0].name, "slower");
  EXPECT_TRUE(outcome.rows[0].regression);
  EXPECT_NEAR(outcome.rows[0].ratio, 1.4, 1e-12);
  EXPECT_EQ(outcome.rows[1].name, "steady");
  EXPECT_FALSE(outcome.rows[1].regression);
  EXPECT_EQ(outcome.rows[2].name, "faster");
  EXPECT_FALSE(outcome.rows[2].regression);
  ASSERT_EQ(outcome.only_old.size(), 1u);
  EXPECT_EQ(outcome.only_old[0], "dropped");
  ASSERT_EQ(outcome.only_new.size(), 1u);
  EXPECT_EQ(outcome.only_new[0], "added");
  EXPECT_NE(outcome.render().find("REGRESSION"), std::string::npos);

  // Within threshold: no regression flag, exit stays clean.
  const CompareOutcome ok = compare_reports(old_report, old_report, 25.0);
  EXPECT_FALSE(ok.regressed);
}

}  // namespace
}  // namespace perf
}  // namespace rbx

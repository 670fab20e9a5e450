#include "core/experiment.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sweep.h"
#include "recov/journal.h"
#include "support/wire.h"

namespace rbx {
namespace {

TEST(ExperimentOptions, Defaults) {
  char prog[] = "bench";
  char* argv[] = {prog};
  const auto opts = ExperimentOptions::parse(1, argv, 5000, 7);
  EXPECT_EQ(opts.samples, 5000u);
  EXPECT_EQ(opts.nmax, 7u);
  EXPECT_EQ(opts.threads, 0u);  // 0 = hardware concurrency in ThreadLane
}

TEST(ExperimentOptions, ParsesFlags) {
  char prog[] = "bench";
  char a1[] = "--samples=123";
  char a2[] = "--nmax=4";
  char a3[] = "--seed=99";
  char a4[] = "--threads=16";
  char* argv[] = {prog, a1, a2, a3, a4};
  const auto opts = ExperimentOptions::parse(5, argv, 5000, 7);
  EXPECT_EQ(opts.samples, 123u);
  EXPECT_EQ(opts.nmax, 4u);
  EXPECT_EQ(opts.seed, 99u);
  EXPECT_EQ(opts.threads, 16u);
}

TEST(ExperimentOptions, ZeroValuesFallBackToDefaults) {
  char prog[] = "bench";
  char a1[] = "--samples=0";
  char* argv[] = {prog, a1};
  const auto opts = ExperimentOptions::parse(2, argv, 5000, 7);
  EXPECT_EQ(opts.samples, 5000u);
}

TEST(ExperimentOptionsDeathTest, RejectsUnknownFlag) {
  char prog[] = "bench";
  char a1[] = "--whatever=3";
  char* argv[] = {prog, a1};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
              ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(ExperimentOptionsDeathTest, RejectsMalformedNumber) {
  char prog[] = "bench";
  char a1[] = "--samples=12abc";
  char* argv[] = {prog, a1};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
              ::testing::ExitedWithCode(2), "non-negative integer");
}

TEST(ExperimentOptionsDeathTest, RejectsNegativeValue) {
  char prog[] = "bench";
  char a1[] = "--nmax=-4";
  char* argv[] = {prog, a1};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
              ::testing::ExitedWithCode(2), "non-negative integer");
}

TEST(ExperimentOptionsDeathTest, RejectsWhitespacePaddedNegative) {
  // strtoull would skip the space and wrap -5 to a huge uint64; the parser
  // must not let it.
  char prog[] = "bench";
  char a1[] = "--samples= -5";
  char* argv[] = {prog, a1};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
              ::testing::ExitedWithCode(2), "non-negative integer");
}

TEST(ExperimentOptionsDeathTest, RejectsEmptyValue) {
  char prog[] = "bench";
  char a1[] = "--seed=";
  char* argv[] = {prog, a1};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
              ::testing::ExitedWithCode(2), "non-negative integer");
}

TEST(ExperimentOptionsDeathTest, RejectsZeroThreads) {
  char prog[] = "bench";
  char a1[] = "--threads=0";
  char* argv[] = {prog, a1};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
              ::testing::ExitedWithCode(2), "thread count");
}

TEST(ExperimentOptions, ParsesWorkersShardAndMerge) {
  char prog[] = "bench";
  char a1[] = "--workers=4";
  char a2[] = "--shard=1/3";
  char a3[] = "--journal=part.rbxj";
  char* argv[] = {prog, a1, a2, a3};
  const auto opts = ExperimentOptions::parse(4, argv, 5000, 7);
  EXPECT_EQ(opts.workers, 4u);
  EXPECT_EQ(opts.shard.index, 1u);
  EXPECT_EQ(opts.shard.count, 3u);
  EXPECT_TRUE(opts.shard.active());
  EXPECT_EQ(opts.journal, "part.rbxj");
  EXPECT_TRUE(opts.merge_inputs.empty());
}

TEST(ExperimentOptions, ShardJournalDefaultsFromShardSpec) {
  char prog[] = "bench";
  char a1[] = "--shard=0/2";
  char* argv[] = {prog, a1};
  const auto opts = ExperimentOptions::parse(2, argv, 5000, 7);
  EXPECT_EQ(opts.journal, "shard-0-of-2.rbxj");
}

TEST(ExperimentOptions, AcceptsDegenerateOneWayShard) {
  // --shard=0/1 is a valid (if trivial) split: one shard owning every
  // cell.  It must still get a journal path so the bench journals its
  // cells instead of silently running in normal mode.
  char prog[] = "bench";
  char a1[] = "--shard=0/1";
  char* argv[] = {prog, a1};
  const auto opts = ExperimentOptions::parse(2, argv, 5000, 7);
  EXPECT_EQ(opts.shard.index, 0u);
  EXPECT_EQ(opts.shard.count, 1u);
  EXPECT_TRUE(opts.shard_mode);
  EXPECT_EQ(opts.journal, "shard-0-of-1.rbxj");
}

TEST(ExperimentOptions, ParsesMergeFileList) {
  char prog[] = "bench";
  char a1[] = "--merge=a.rbxj,b.rbxj,c.rbxj";
  char* argv[] = {prog, a1};
  const auto opts = ExperimentOptions::parse(2, argv, 5000, 7);
  ASSERT_EQ(opts.merge_inputs.size(), 3u);
  EXPECT_EQ(opts.merge_inputs[0], "a.rbxj");
  EXPECT_EQ(opts.merge_inputs[1], "b.rbxj");
  EXPECT_EQ(opts.merge_inputs[2], "c.rbxj");
}

TEST(ExperimentOptionsDeathTest, RejectsZeroWorkers) {
  char prog[] = "bench";
  char a1[] = "--workers=0";
  char* argv[] = {prog, a1};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
              ::testing::ExitedWithCode(2), "worker count");
}

TEST(ExperimentOptionsDeathTest, RejectsNegativeWorkers) {
  char prog[] = "bench";
  char a1[] = "--workers=-1";
  char* argv[] = {prog, a1};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
              ::testing::ExitedWithCode(2), "non-negative integer");
}

TEST(ExperimentOptionsDeathTest, RejectsShardIndexNotBelowCount) {
  char prog[] = "bench";
  char a1[] = "--shard=3/2";
  char* argv[] = {prog, a1};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
              ::testing::ExitedWithCode(2), "shard index must be < shard");
  char a2[] = "--shard=2/2";
  char* argv2[] = {prog, a2};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv2, 100, 2),
              ::testing::ExitedWithCode(2), "shard index must be < shard");
}

TEST(ExperimentOptionsDeathTest, RejectsMalformedShard) {
  char prog[] = "bench";
  const char* cases[] = {"--shard=0", "--shard=/2", "--shard=1/",
                         "--shard=a/2", "--shard=1/b", "--shard=-1/2",
                         "--shard=0/0", "--shard="};
  for (const char* bad : cases) {
    std::string owned(bad);
    char* argv[] = {prog, owned.data()};
    EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
                ::testing::ExitedWithCode(2), "bad argument")
        << bad;
  }
}

TEST(ExperimentOptionsDeathTest, RejectsMergeCombinedWithShard) {
  char prog[] = "bench";
  char a1[] = "--merge=a.rbxj,b.rbxj";
  char a2[] = "--shard=0/2";
  char* argv[] = {prog, a1, a2};
  EXPECT_EXIT(ExperimentOptions::parse(3, argv, 100, 2),
              ::testing::ExitedWithCode(2), "cannot combine");
}

TEST(ExperimentOptionsDeathTest, RejectsEmptyMergeEntries) {
  char prog[] = "bench";
  const char* cases[] = {"--merge=", "--merge=a,,b", "--merge=a,"};
  for (const char* bad : cases) {
    std::string owned(bad);
    char* argv[] = {prog, owned.data()};
    EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
                ::testing::ExitedWithCode(2), "bad argument")
        << bad;
  }
}

TEST(ExperimentOptions, ParsesBatchAndConnect) {
  char prog[] = "bench";
  char a1[] = "--batch=16";
  char a2[] = "--connect=hostA:4701,127.0.0.1:4702";
  char* argv[] = {prog, a1, a2};
  const auto opts = ExperimentOptions::parse(3, argv, 100, 2);
  EXPECT_EQ(opts.batch, 16u);
  ASSERT_EQ(opts.connect.size(), 2u);
  EXPECT_EQ(opts.connect[0].host, "hostA");
  EXPECT_EQ(opts.connect[0].port, 4701);
  EXPECT_EQ(opts.connect[1].host, "127.0.0.1");
  EXPECT_EQ(opts.connect[1].port, 4702);
}

TEST(ExperimentOptions, BatchZeroMeansAdaptive) {
  char prog[] = "bench";
  char a1[] = "--batch=0";
  char a2[] = "--workers=2";
  char* argv[] = {prog, a1, a2};
  const auto opts = ExperimentOptions::parse(3, argv, 100, 2);
  EXPECT_EQ(opts.batch, 0u);
}

TEST(ExperimentOptionsDeathTest, RejectsBatchWithoutWorkersOrConnect) {
  // --batch silently doing nothing on a threads-only run is exactly the
  // "typo'd flag" trap the strict parser exists to prevent.
  char prog[] = "bench";
  char a1[] = "--batch=16";
  char* argv[] = {prog, a1};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
              ::testing::ExitedWithCode(2), "only applies");
}

TEST(ExperimentOptionsDeathTest, RejectsNegativeBatch) {
  char prog[] = "bench";
  char a1[] = "--batch=-2";
  char* argv[] = {prog, a1};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
              ::testing::ExitedWithCode(2), "non-negative integer");
}

TEST(ExperimentOptionsDeathTest, RejectsMalformedBatch) {
  char prog[] = "bench";
  char a1[] = "--batch=8x";
  char* argv[] = {prog, a1};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
              ::testing::ExitedWithCode(2), "non-negative integer");
}

TEST(ExperimentOptionsDeathTest, RejectsConnectWithoutPort) {
  char prog[] = "bench";
  char a1[] = "--connect=hostA";
  char* argv[] = {prog, a1};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
              ::testing::ExitedWithCode(2), "host:port");
}

TEST(ExperimentOptionsDeathTest, RejectsConnectWithBadPort) {
  char prog[] = "bench";
  char a1[] = "--connect=hostA:0";
  char* argv[] = {prog, a1};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
              ::testing::ExitedWithCode(2), "1..65535");
}

TEST(ExperimentOptionsDeathTest, RejectsEmptyConnectEntry) {
  char prog[] = "bench";
  char a1[] = "--connect=hostA:1,";
  char* argv[] = {prog, a1};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
              ::testing::ExitedWithCode(2), "empty endpoint");
}

TEST(ExperimentOptions, ThreadsWorkersAndConnectComposeIntoOneHybridRun) {
  // The lane flags compose: one sweep can span in-process threads, forked
  // workers and remote daemons at once.
  char prog[] = "bench";
  char a1[] = "--threads=8";
  char a2[] = "--workers=4";
  char a3[] = "--connect=hostA:4701,hostB:4701";
  char a4[] = "--steal";
  char a5[] = "--batch=2";
  char* argv[] = {prog, a1, a2, a3, a4, a5};
  const auto opts = ExperimentOptions::parse(6, argv, 100, 2);
  EXPECT_EQ(opts.threads, 8u);
  EXPECT_TRUE(opts.threads_given);
  EXPECT_EQ(opts.workers, 4u);
  ASSERT_EQ(opts.connect.size(), 2u);
  EXPECT_TRUE(opts.steal);
  EXPECT_EQ(opts.batch, 2u);
}

TEST(ExperimentOptions, ThreadLaneOnlyWhenNamedAlongsideWorkerLanes) {
  // Without --threads, a --workers/--connect run gets no thread lane (the
  // pre-hybrid behavior); threads_given is how SweepRunner knows.
  char prog[] = "bench";
  char a1[] = "--workers=4";
  char* argv[] = {prog, a1};
  const auto opts = ExperimentOptions::parse(2, argv, 100, 2);
  EXPECT_FALSE(opts.threads_given);
  EXPECT_EQ(opts.threads, 0u);
}

TEST(ExperimentOptions, StealComposesWithWorkersAlone) {
  // --steal was once --connect-only; any worker lane now qualifies.
  char prog[] = "bench";
  char a1[] = "--workers=2";
  char a2[] = "--steal";
  char* argv[] = {prog, a1, a2};
  const auto opts = ExperimentOptions::parse(3, argv, 100, 2);
  EXPECT_TRUE(opts.steal);
}

TEST(ExperimentOptionsDeathTest, RejectsStealOnPureThreadsRun) {
  char prog[] = "bench";
  char a1[] = "--steal";
  char a2[] = "--threads=8";
  char* argv[] = {prog, a1, a2};
  EXPECT_EXIT(ExperimentOptions::parse(3, argv, 100, 2),
              ::testing::ExitedWithCode(2), "only applies");
}

TEST(ExperimentOptions, JournalFlagsParse) {
  char prog[] = "bench";
  char a1[] = "--journal=sweep.rbxj";
  char* argv[] = {prog, a1};
  const auto opts = ExperimentOptions::parse(2, argv, 100, 2);
  EXPECT_EQ(opts.journal, "sweep.rbxj");
  EXPECT_TRUE(opts.resume.empty());
  EXPECT_FALSE(opts.no_cache);
}

TEST(ExperimentOptions, JournalAndResumeAreMutuallyExclusive) {
  char prog[] = "bench";
  char a1[] = "--journal=a.rbxj";
  char a2[] = "--resume=b.rbxj";
  char* argv[] = {prog, a1, a2};
  EXPECT_EXIT(ExperimentOptions::parse(3, argv, 100, 2),
              ::testing::ExitedWithCode(2), "pick one");
}

TEST(ExperimentOptions, ResumeRejectsMerge) {
  // --merge evaluates nothing, so journaling or resuming it is a user
  // error, refused up front with exit 2.
  char prog[] = "bench";
  char a1[] = "--resume=a.rbxj";
  char a2[] = "--merge=x.rbxj";
  char* argv[] = {prog, a1, a2};
  EXPECT_EXIT(ExperimentOptions::parse(3, argv, 100, 2),
              ::testing::ExitedWithCode(2), "nothing to");
}

TEST(ExperimentOptions, JournalAndResumeComposeWithShard) {
  // A shard is a journaled sweep: --journal names its journal and
  // --resume continues a killed one (no default journal is invented).
  char prog[] = "bench";
  char a1[] = "--journal=a.rbxj";
  char a2[] = "--shard=0/2";
  char* argv[] = {prog, a1, a2};
  const auto journaled = ExperimentOptions::parse(3, argv, 100, 2);
  EXPECT_EQ(journaled.journal, "a.rbxj");
  char a3[] = "--resume=b.rbxj";
  char* argv2[] = {prog, a3, a2};
  const auto resumed = ExperimentOptions::parse(3, argv2, 100, 2);
  EXPECT_TRUE(resumed.journal.empty());
  EXPECT_EQ(resumed.resume, "b.rbxj");
  EXPECT_TRUE(resumed.shard_mode);
}

TEST(ExperimentOptions, NoCacheRequiresConnect) {
  char prog[] = "bench";
  char a1[] = "--no-cache";
  char* argv[] = {prog, a1};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
              ::testing::ExitedWithCode(2), "--connect or --fleet runs");
}

TEST(ExperimentOptions, EmptyJournalPathRefused) {
  char prog[] = "bench";
  char a1[] = "--resume=";
  char* argv[] = {prog, a1};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
              ::testing::ExitedWithCode(2), "journal file path");
}

// A small monte-carlo grid for the SweepRunner tests.
std::vector<Scenario> runner_cells() {
  const auto apply_n = [](Scenario& s, double n) {
    s.params(ProcessSetParams::symmetric(static_cast<std::size_t>(n), 1.0,
                                         1.0));
  };
  return SweepGrid(Scenario::symmetric(2, 1.0, 1.0).samples(200))
      .axis({2, 3}, apply_n)
      .schemes({SchemeKind::kAsynchronous, SchemeKind::kSynchronized})
      .expand(41);
}

TEST(SweepRunnerTest, ThreadAndForkLanesMatchEvaluatePlan) {
  // --threads=2 --workers=2 composes a ForkLane and a ThreadLane under
  // one DispatchCore; every cell must come back as evaluate_plan's bytes.
  char prog[] = "bench";
  char a1[] = "--threads=2";
  char a2[] = "--workers=2";
  char* argv[] = {prog, a1, a2};
  const auto opts = ExperimentOptions::parse(3, argv, 100, 2);
  const std::vector<Scenario> cells = runner_cells();
  const PlanFn plan_fn = [](const Scenario&, std::size_t) {
    return EvalPlan{{EvalStep{"monte-carlo", ""}}};
  };
  SweepRunner runner(opts);
  const auto results = runner.run(cells, plan_fn);
  ASSERT_TRUE(results.has_value());
  ASSERT_EQ(results->size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ((*results)[i], evaluate_plan(plan_fn(cells[i], i), cells[i]))
        << "cell " << i;
  }
}

TEST(SweepRunnerDeathTest, LocalOnlyCellFnRefusedOnFleetLane) {
  // A CellFn sweep cannot ship to remote daemons.  The refusal comes
  // before any lane dials, so the unreachable registry is never tried.
  char prog[] = "bench";
  char a1[] = "--fleet=127.0.0.1:1";
  char* argv[] = {prog, a1};
  const auto opts = ExperimentOptions::parse(2, argv, 100, 2);
  const CellFn local = [](const Scenario& s, std::size_t) {
    return ResultSet("test", s.label());
  };
  EXPECT_EXIT(
      {
        SweepRunner runner(opts);
        runner.run(runner_cells(), local);
      },
      ::testing::ExitedWithCode(2),
      "--connect/--fleet: this sweep evaluates through a local-only cell "
      "function");
}

// --- shards: journaled sweeps that own part of the grid ----------------

// A bench command line: "bench" followed by `args`.
ExperimentOptions bench_options(std::vector<std::string> args) {
  std::string prog = "bench";
  std::vector<char*> argv{prog.data()};
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return ExperimentOptions::parse(static_cast<int>(argv.size()), argv.data(),
                                  100, 5);
}

// A 12-cell monte-carlo grid; `seed` and `samples` pick the experiment.
std::vector<Scenario> shard_cells(std::uint64_t seed = 41,
                                  std::size_t samples = 100) {
  const auto apply_n = [](Scenario& s, double n) {
    s.params(ProcessSetParams::symmetric(static_cast<std::size_t>(n), 1.0,
                                         1.0));
  };
  const auto apply_samples = [](Scenario& s, double scale) {
    s.samples(static_cast<std::size_t>(scale) * s.samples());
  };
  return SweepGrid(Scenario::symmetric(2, 1.0, 1.0).samples(samples))
      .axis({2, 3, 4}, apply_n)
      .axis({1, 2}, apply_samples)
      .schemes({SchemeKind::kAsynchronous, SchemeKind::kSynchronized})
      .expand(seed);
}

PlanFn mc_plan() {
  return [](const Scenario&, std::size_t) {
    return EvalPlan{{EvalStep{"monte-carlo", ""}}};
  };
}

std::vector<ResultSet> serial_reference(const std::vector<Scenario>& cells) {
  const PlanFn plan = mc_plan();
  std::vector<ResultSet> out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out.push_back(evaluate_plan(plan(cells[i], i), cells[i]));
  }
  return out;
}

std::string temp_journal(const std::string& name) {
  const std::string path = ::testing::TempDir() + "experiment_" + name;
  std::remove(path.c_str());
  return path;
}

// "--shard=k/count".
std::string shard_flag(std::size_t k, std::size_t count) {
  std::string flag = "--shard=";
  flag += std::to_string(k);
  flag += "/";
  flag += std::to_string(count);
  return flag;
}

// A two-thread shard k of `count`; `journal_flag` is its --journal= or
// --resume= flag.
ExperimentOptions shard_options(std::size_t k, std::size_t count,
                                const std::string& journal_flag) {
  return bench_options({"--threads=2", shard_flag(k, count), journal_flag});
}

TEST(SweepRunnerTest, ThreeShardJournalsMergeInAnyOrder) {
  // Two sweeps per bench run, as in sec3: sweep s of every journal must
  // line up with the bench's s-th run() call.  The journals are listed in
  // reverse shard order; the union does not care.
  const std::vector<Scenario> first = shard_cells(41);
  const std::vector<Scenario> second = shard_cells(42);
  std::vector<std::string> journals;
  for (std::size_t k = 0; k < 3; ++k) {
    journals.push_back(temp_journal("three_way_" + std::to_string(k)));
    SweepRunner runner(shard_options(k, 3, "--journal=" + journals.back()));
    EXPECT_FALSE(runner.run(first, mc_plan()).has_value());
    EXPECT_FALSE(runner.run(second, mc_plan()).has_value());
  }
  SweepRunner merger(bench_options(
      {"--merge=" + journals[2] + "," + journals[1] + "," + journals[0]}));
  EXPECT_EQ(*merger.run(first, mc_plan()), serial_reference(first));
  EXPECT_EQ(*merger.run(second, mc_plan()), serial_reference(second));
  for (const std::string& journal : journals) {
    std::remove(journal.c_str());
  }
}

TEST(SweepRunnerTest, ResumedShardEvaluatesOnlyItsMissingCells) {
  // Shard 1 of 3 journals its 4 cells, then the journal is cut inside its
  // second cell record (a SIGKILL mid-sweep).  --resume --shard=1/3 must
  // evaluate exactly the 3 owned cells the cut lost - none of the other
  // shards' cells, none it already has - and the merge stays bitwise.
  const std::vector<Scenario> cells = shard_cells();
  const std::string journal = temp_journal("resume_shard1");
  {
    SweepRunner runner(shard_options(1, 3, "--journal=" + journal));
    ASSERT_FALSE(runner.run(cells, mc_plan()).has_value());
  }
  std::vector<std::byte> bytes = recov::read_file_bytes(journal, "test");
  const recov::RecordScan scan =
      recov::scan_records(bytes.data(), bytes.size());
  ASSERT_GE(scan.records.size(), 3u);
  const auto record_size = [&scan](std::size_t r) {
    return wire::kFrameHeaderSize + scan.records[r].payload.size() + 4;
  };
  bytes.resize(record_size(0) + record_size(1) + record_size(2) / 2);
  wire::write_file(journal, bytes);
  const recov::JournalAnalysis cut = recov::analyze_journal(journal);
  ASSERT_EQ(cut.sweeps.size(), 1u);
  ASSERT_EQ(cut.sweeps[0].committed.size(), 1u);
  const std::size_t kept = cut.sweeps[0].committed[0].first;

  std::mutex mu;
  std::vector<std::size_t> evaluated;
  const PlanFn plan = mc_plan();
  const CellFn counting = [&](const Scenario& s, std::size_t i) {
    {
      std::lock_guard<std::mutex> lock(mu);
      evaluated.push_back(i);
    }
    return evaluate_plan(plan(s, i), s);
  };
  ::testing::internal::CaptureStderr();
  {
    SweepRunner runner(shard_options(1, 3, "--resume=" + journal));
    EXPECT_FALSE(runner.run(cells, counting).has_value());
  }
  const std::string notes = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(notes.find("1/4 cells already committed, evaluating 3"),
            std::string::npos)
      << notes;
  std::sort(evaluated.begin(), evaluated.end());
  std::vector<std::size_t> lost;
  for (std::size_t i : shard_cell_indices(cells.size(), ShardSpec{1, 3})) {
    if (i != kept) {
      lost.push_back(i);
    }
  }
  EXPECT_EQ(evaluated, lost);

  // The sweep-end record counts the shard's owned cells.
  const recov::JournalAnalysis resumed = recov::analyze_journal(journal);
  ASSERT_EQ(resumed.sweeps.size(), 1u);
  EXPECT_TRUE(resumed.sweeps[0].ended);
  EXPECT_EQ(resumed.sweeps[0].end_stats.committed_cells, 4u);
  EXPECT_EQ(resumed.sweeps[0].end_stats.evaluated_cells, 3u);

  std::vector<std::string> journals = {journal};
  std::string merge = "--merge=" + journal;
  for (std::size_t k : {0u, 2u}) {
    journals.push_back(temp_journal("resume_shard" + std::to_string(k)));
    SweepRunner runner(shard_options(k, 3, "--journal=" + journals.back()));
    ASSERT_FALSE(runner.run(cells, mc_plan()).has_value());
    merge += "," + journals.back();
  }
  SweepRunner merger(bench_options({merge}));
  EXPECT_EQ(*merger.run(cells, mc_plan()), serial_reference(cells));
  for (const std::string& path : journals) {
    std::remove(path.c_str());
  }
}

TEST(SweepRunnerDeathTest, MergeMissingAShardExitsNamingTheCell) {
  // Shard 0 of 2 owns the even cells; merging it alone leaves cell 1 in
  // no journal.
  const std::vector<Scenario> cells = shard_cells();
  const std::string journal = temp_journal("lonely_shard0");
  {
    SweepRunner runner(shard_options(0, 2, "--journal=" + journal));
    ASSERT_FALSE(runner.run(cells, mc_plan()).has_value());
  }
  const ExperimentOptions merge = bench_options({"--merge=" + journal});
  EXPECT_EXIT(
      {
        SweepRunner runner(merge);
        runner.run(cells, mc_plan());
      },
      ::testing::ExitedWithCode(1),
      "merge: sweep 0: cell 1 is in none of the journals");
  std::remove(journal.c_str());
}

TEST(SweepRunnerDeathTest, MergeRefusesAShardFromAnotherGrid) {
  // Shard 1 ran with --samples=300: its journal carries another grid
  // fingerprint, and the merge must refuse it instead of printing tables
  // that mix two experiments.
  const std::string j0 = temp_journal("grid_shard0");
  const std::string j1 = temp_journal("grid_shard1");
  {
    SweepRunner runner(shard_options(0, 2, "--journal=" + j0));
    ASSERT_FALSE(runner.run(shard_cells(41, 100), mc_plan()).has_value());
  }
  {
    SweepRunner runner(bench_options({"--threads=2", "--samples=300",
                                      shard_flag(1, 2), "--journal=" + j1}));
    ASSERT_FALSE(runner.run(shard_cells(41, 300), mc_plan()).has_value());
  }
  const ExperimentOptions merge = bench_options({"--merge=" + j0 + "," + j1});
  EXPECT_EXIT(
      {
        SweepRunner runner(merge);
        runner.run(shard_cells(41, 100), mc_plan());
      },
      ::testing::ExitedWithCode(1),
      "grid_shard1' sweep 0: .*fingerprint mismatch");
  std::remove(j0.c_str());
  std::remove(j1.c_str());
}

TEST(SweepRunnerDeathTest, ResumeOfAHugeTotalCellsJournalExitsWithAMessage) {
  // A CRC-valid journal whose sweep claims 2^60 cells.  The analysis pass
  // must not allocate by that count (std::bad_alloc would abort the
  // process); the resume refuses the count mismatch with exit 2.
  const std::vector<Scenario> cells = shard_cells();
  const std::string journal = temp_journal("huge_total");
  {
    recov::JournalWriter::Options jopts;
    jopts.truncate = true;
    recov::JournalWriter writer(journal, jopts);
    writer.sweep_begin(0, grid_fingerprint(cells), std::uint64_t{1} << 60,
                       "hostile");
  }
  const ExperimentOptions resume =
      bench_options({"--threads=1", "--resume=" + journal});
  EXPECT_EXIT(
      {
        SweepRunner runner(resume);
        runner.run(cells, mc_plan());
      },
      ::testing::ExitedWithCode(2),
      "resume: the journal's sweep has 1152921504606846976 cells, this sweep "
      "has 12");
  std::remove(journal.c_str());
}

TEST(Formatting, CiString) {
  EXPECT_EQ(fmt_ci(1.2345, 0.01, 2), "1.23 +- 0.01");
}

TEST(Formatting, Deviation) {
  EXPECT_EQ(fmt_dev(110.0, 100.0), "+10.00%");
  EXPECT_EQ(fmt_dev(95.0, 100.0), "-5.00%");
  EXPECT_EQ(fmt_dev(1.0, 0.0), "n/a");
}

}  // namespace
}  // namespace rbx

#include "core/experiment.h"

#include <gtest/gtest.h>

#include "core/sweep.h"

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
  char a3[] = "--shard-out=partial.rbxw";
  char* argv[] = {prog, a1, a2, a3};
  const auto opts = ExperimentOptions::parse(4, argv, 5000, 7);
  EXPECT_EQ(opts.workers, 4u);
  EXPECT_EQ(opts.shard.index, 1u);
  EXPECT_EQ(opts.shard.count, 3u);
  EXPECT_TRUE(opts.shard.active());
  EXPECT_EQ(opts.shard_out, "partial.rbxw");
  EXPECT_TRUE(opts.merge_inputs.empty());
}

TEST(ExperimentOptions, ShardOutDefaultsFromShardSpec) {
  char prog[] = "bench";
  char a1[] = "--shard=0/2";
  char* argv[] = {prog, a1};
  const auto opts = ExperimentOptions::parse(2, argv, 5000, 7);
  EXPECT_EQ(opts.shard_out, "shard-0-of-2.rbxw");
}

TEST(ExperimentOptions, AcceptsDegenerateOneWayShard) {
  // --shard=0/1 is a valid (if trivial) split: one shard owning every
  // cell.  It must still get a partial file path so the bench writes a
  // partial instead of silently running in normal mode.
  char prog[] = "bench";
  char a1[] = "--shard=0/1";
  char* argv[] = {prog, a1};
  const auto opts = ExperimentOptions::parse(2, argv, 5000, 7);
  EXPECT_EQ(opts.shard.index, 0u);
  EXPECT_EQ(opts.shard.count, 1u);
  EXPECT_EQ(opts.shard_out, "shard-0-of-1.rbxw");
}

TEST(ExperimentOptions, ParsesMergeFileList) {
  char prog[] = "bench";
  char a1[] = "--merge=a.rbxw,b.rbxw,c.rbxw";
  char* argv[] = {prog, a1};
  const auto opts = ExperimentOptions::parse(2, argv, 5000, 7);
  ASSERT_EQ(opts.merge_inputs.size(), 3u);
  EXPECT_EQ(opts.merge_inputs[0], "a.rbxw");
  EXPECT_EQ(opts.merge_inputs[1], "b.rbxw");
  EXPECT_EQ(opts.merge_inputs[2], "c.rbxw");
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
  char a1[] = "--merge=a.rbxw,b.rbxw";
  char a2[] = "--shard=0/2";
  char* argv[] = {prog, a1, a2};
  EXPECT_EXIT(ExperimentOptions::parse(3, argv, 100, 2),
              ::testing::ExitedWithCode(2), "cannot combine");
}

TEST(ExperimentOptionsDeathTest, RejectsShardOutWithoutShard) {
  char prog[] = "bench";
  char a1[] = "--shard-out=f.rbxw";
  char* argv[] = {prog, a1};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
              ::testing::ExitedWithCode(2), "requires --shard");
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

TEST(ExperimentOptions, ParsesShardServe) {
  char prog[] = "bench";
  char a1[] = "--shard=0/2";
  char a2[] = "--shard-serve=4711";
  char* argv[] = {prog, a1, a2};
  const auto opts = ExperimentOptions::parse(3, argv, 100, 2);
  EXPECT_TRUE(opts.shard_mode);
  EXPECT_TRUE(opts.shard_serve);
  EXPECT_EQ(opts.shard_serve_port, 4711);
  // Serving replaces the partial file; no default path is invented.
  EXPECT_TRUE(opts.shard_out.empty());
}

TEST(ExperimentOptionsDeathTest, RejectsShardServeWithoutShard) {
  char prog[] = "bench";
  char a1[] = "--shard-serve=4711";
  char* argv[] = {prog, a1};
  EXPECT_EXIT(ExperimentOptions::parse(2, argv, 100, 2),
              ::testing::ExitedWithCode(2), "requires --shard");
}

TEST(ExperimentOptionsDeathTest, RejectsShardServeCombinedWithShardOut) {
  char prog[] = "bench";
  char a1[] = "--shard=0/2";
  char a2[] = "--shard-out=f.rbxw";
  char a3[] = "--shard-serve=4711";
  char* argv[] = {prog, a1, a2, a3};
  EXPECT_EXIT(ExperimentOptions::parse(4, argv, 100, 2),
              ::testing::ExitedWithCode(2), "cannot combine");
}

TEST(ExperimentOptions, MergeAcceptsSocketSourcesAlongsideFiles) {
  // A merge source that parses as HOST:PORT is a socket to a
  // --shard-serve run; anything else stays a file path.
  char prog[] = "bench";
  char a1[] = "--merge=shard0.rbxw,127.0.0.1:4712";
  char* argv[] = {prog, a1};
  const auto opts = ExperimentOptions::parse(2, argv, 100, 2);
  ASSERT_EQ(opts.merge_inputs.size(), 2u);
  EXPECT_EQ(opts.merge_inputs[0], "shard0.rbxw");
  EXPECT_EQ(opts.merge_inputs[1], "127.0.0.1:4712");
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
  char a2[] = "--merge=x.rbxw";
  char* argv[] = {prog, a1, a2};
  EXPECT_EXIT(ExperimentOptions::parse(3, argv, 100, 2),
              ::testing::ExitedWithCode(2), "nothing to");
}

TEST(ExperimentOptions, JournalRejectsShard) {
  char prog[] = "bench";
  char a1[] = "--journal=a.rbxj";
  char a2[] = "--shard=0/2";
  char* argv[] = {prog, a1, a2};
  EXPECT_EXIT(ExperimentOptions::parse(3, argv, 100, 2),
              ::testing::ExitedWithCode(2), "whole sweeps");
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

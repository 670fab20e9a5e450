// The evaluation determinism contract: the same expanded grid produces
// bitwise-identical results on 1 thread, N threads, M forked worker
// processes, and shard journals merged back together - plus the failure
// semantics (throwing cell_fn -> per-cell error; crashed worker ->
// per-cell error, not a hung sweep).
#include "core/executor.h"

#include <unistd.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/dispatch.h"
#include "core/experiment.h"
#include "core/lane.h"
#include "core/sweep.h"

namespace rbx {
namespace {

std::vector<Scenario> mc_grid(std::uint64_t master_seed) {
  const auto apply_n = [](Scenario& s, double n) {
    s.params(ProcessSetParams::symmetric(static_cast<std::size_t>(n), 1.0,
                                         1.0));
  };
  return SweepGrid(Scenario::symmetric(2, 1.0, 1.0).samples(300))
      .axis({2, 3, 4}, apply_n)
      .schemes({SchemeKind::kAsynchronous, SchemeKind::kSynchronized})
      .expand(master_seed);
}

CellFn backend_fn() {
  return [](const Scenario& s, std::size_t) {
    return monte_carlo_backend().evaluate(s);
  };
}

// Evaluates `cells` on one lane under a fresh DispatchCore.
std::vector<CellOutcome> run_on(Lane& lane, const std::vector<Scenario>& cells,
                                const CellFn& fn, std::size_t batch = 0) {
  DispatchOptions options;
  options.batch_size = batch;
  return DispatchCore({&lane}, options).run(cells, fn).outcomes;
}

// A bench command line: "bench" followed by `args`.
ExperimentOptions bench_options(std::vector<std::string> args) {
  std::string prog = "bench";
  std::vector<char*> argv{prog.data()};
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return ExperimentOptions::parse(static_cast<int>(argv.size()), argv.data(),
                                  300, 4);
}

std::vector<ResultSet> results_of(const std::vector<CellOutcome>& outcomes) {
  std::vector<ResultSet> out;
  for (const CellOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok()) << outcome.error;
    out.push_back(outcome.result);
  }
  return out;
}

TEST(ExecutorDeterminism, AllExecutionModesAreBitwiseIdentical) {
  const std::vector<Scenario> cells = mc_grid(17);
  const CellFn fn = backend_fn();

  ThreadLane one(1);
  ThreadLane eight(8);
  ForkLane forks(4);
  const auto serial = results_of(run_on(one, cells, fn));
  const auto threaded = results_of(run_on(eight, cells, fn));
  const auto forked = results_of(run_on(forks, cells, fn, /*batch=*/1));

  // Sharded: two --shard runs journal their halves of the grid, and a
  // --merge run unions the journals.
  const std::string journals[] = {
      ::testing::TempDir() + "executor_shard0.rbxj",
      ::testing::TempDir() + "executor_shard1.rbxj"};
  for (std::size_t k = 0; k < 2; ++k) {
    std::string shard = "--shard=";
    shard += std::to_string(k);
    shard += "/2";
    SweepRunner runner(
        bench_options({"--threads=2", shard, "--journal=" + journals[k]}));
    EXPECT_FALSE(runner.run(cells, fn).has_value());
  }
  SweepRunner merger(
      bench_options({"--merge=" + journals[0] + "," + journals[1]}));
  const std::vector<ResultSet> merged = *merger.run(cells, fn);
  for (const std::string& journal : journals) {
    std::remove(journal.c_str());
  }

  ASSERT_EQ(serial.size(), cells.size());
  ASSERT_EQ(threaded.size(), cells.size());
  ASSERT_EQ(forked.size(), cells.size());
  ASSERT_EQ(merged.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "threaded cell " << i;
    EXPECT_EQ(serial[i], forked[i]) << "forked cell " << i;
    EXPECT_EQ(serial[i], merged[i]) << "merged cell " << i;
  }
}

TEST(ThreadLaneTest, EmptyCellsAndThreadsExceedingCells) {
  const CellFn fn = [](const Scenario& s, std::size_t i) {
    ResultSet out("test", s.label());
    out.set("index", static_cast<double>(i));
    return out;
  };
  ThreadLane four(4);
  EXPECT_TRUE(run_on(four, {}, fn).empty());

  // Far more threads than cells: must not lose cells; outcomes stay in
  // input order.
  const std::vector<Scenario> cells(3, Scenario::symmetric(2, 1.0, 1.0));
  ThreadLane many(64);
  const auto outcomes = run_on(many, cells, fn);
  ASSERT_EQ(outcomes.size(), 3u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok());
    EXPECT_DOUBLE_EQ(outcomes[i].result.value("index"),
                     static_cast<double>(i));
  }
}

TEST(ThreadLaneTest, ThrowingCellBecomesPerCellError) {
  const std::vector<Scenario> cells(4, Scenario::symmetric(2, 1.0, 1.0));
  ThreadLane lane(2);
  const auto outcomes = run_on(
      lane, cells, [](const Scenario& s, std::size_t i) {
        if (i == 2) {
          throw std::runtime_error("synthetic cell failure");
        }
        ResultSet out("test", s.label());
        out.set("ok", 1.0);
        return out;
      });
  ASSERT_EQ(outcomes.size(), 4u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 2) {
      EXPECT_FALSE(outcomes[i].ok());
      EXPECT_EQ(outcomes[i].error, "synthetic cell failure");
    } else {
      EXPECT_TRUE(outcomes[i].ok());
    }
  }
}

TEST(ForkLaneTest, ThrowingCellBecomesPerCellError) {
  const std::vector<Scenario> cells(4, Scenario::symmetric(2, 1.0, 1.0));
  ForkLane lane(2);
  const auto outcomes = run_on(
      lane, cells,
      [](const Scenario& s, std::size_t i) {
        if (i == 1) {
          throw std::runtime_error("worker-side failure");
        }
        ResultSet out("test", s.label());
        out.set("index", static_cast<double>(i));
        return out;
      },
      /*batch=*/1);
  ASSERT_EQ(outcomes.size(), 4u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 1) {
      EXPECT_FALSE(outcomes[i].ok());
      EXPECT_EQ(outcomes[i].error, "worker-side failure");
    } else {
      EXPECT_TRUE(outcomes[i].ok()) << outcomes[i].error;
      EXPECT_DOUBLE_EQ(outcomes[i].result.value("index"),
                       static_cast<double>(i));
    }
  }
}

TEST(ForkLaneTest, PoisonousCellFailsAfterKillingTwoWorkers) {
  // A cell that kills its worker process outright (not an exception).
  // The dispatch core respawns the crashed worker and re-runs the cell
  // once; when the rerun kills a worker too, the cell is declared
  // poisonous and becomes a per-cell error.  Every other cell still
  // evaluates - the sweep never hangs, never dies, and the pool never
  // shrinks.
  const std::vector<Scenario> cells(8, Scenario::symmetric(2, 1.0, 1.0));
  ForkLane lane(2);
  const auto outcomes = run_on(
      lane, cells,
      [](const Scenario& s, std::size_t i) {
        if (i == 3) {
          ::_exit(42);  // simulated crash (e.g. a fatal RBX_CHECK)
        }
        ResultSet out("test", s.label());
        out.set("index", static_cast<double>(i));
        return out;
      },
      /*batch=*/1);
  ASSERT_EQ(outcomes.size(), 8u);
  EXPECT_FALSE(outcomes[3].ok());
  EXPECT_NE(outcomes[3].error.find("two lost workers"), std::string::npos)
      << outcomes[3].error;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 3) {
      continue;
    }
    EXPECT_TRUE(outcomes[i].ok()) << "cell " << i << ": "
                                  << outcomes[i].error;
    EXPECT_DOUBLE_EQ(outcomes[i].result.value("index"),
                     static_cast<double>(i));
  }
}

TEST(ForkLaneTest, EmptyCellsAndWorkerClamp) {
  const CellFn fn = backend_fn();
  ForkLane four(4);
  EXPECT_TRUE(run_on(four, {}, fn, /*batch=*/2).empty());
  // One cell, many workers: clamps to one batch/one worker.
  const std::vector<Scenario> cells(1, Scenario::symmetric(2, 1.0, 1.0));
  ForkLane eight(8);
  const auto outcomes = run_on(
      eight, cells, [](const Scenario& s, std::size_t) {
        ResultSet out("test", s.label());
        out.set("x", 1.0);
        return out;
      });
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].ok());
}

TEST(ApplyResultBatchTest, CommittedMaskIgnoresLateDuplicates) {
  // Work stealing can put one cell in flight on two workers; the first
  // answer must win and the loser's duplicate must be ignored without
  // tripping the strict batch checks.
  const auto entry = [](std::uint64_t index, double value) {
    ResultSet r("test", "cell");
    r.set("x", value);
    CellOutcome outcome;
    outcome.result = std::move(r);
    return ResultBatch::Entry{index, std::move(outcome)};
  };

  std::vector<CellOutcome> outcomes(3);
  std::vector<std::uint8_t> committed(3, 0);

  ResultBatch first;  // the thief answers cells 1 and 2
  first.entries.push_back(entry(1, 10.0));
  first.entries.push_back(entry(2, 20.0));
  EXPECT_EQ(apply_result_batch(std::move(first), {1, 2}, outcomes,
                               &committed),
            (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(outcomes[1].result.value("x"), 10.0);

  ResultBatch late;  // the straggler answers its whole batch {0, 1} later
  late.entries.push_back(entry(0, 5.0));
  late.entries.push_back(entry(1, 99.0));  // duplicate of a stolen cell
  EXPECT_EQ(apply_result_batch(std::move(late), {0, 1}, outcomes,
                               &committed),
            std::vector<std::size_t>{0});
  EXPECT_EQ(outcomes[0].result.value("x"), 5.0);
  // The first answer stuck (in reality both are bitwise identical; the
  // sentinel value just proves the duplicate was dropped, not applied).
  EXPECT_EQ(outcomes[1].result.value("x"), 10.0);

  // The strict contract still holds under the mask: a short or foreign
  // answer is a protocol violation even when some cells are committed.
  ResultBatch shorting;
  shorting.entries.push_back(entry(1, 1.0));
  EXPECT_THROW(apply_result_batch(std::move(shorting), {1, 2}, outcomes,
                                  &committed),
               wire::Error);
  ResultBatch foreign;
  foreign.entries.push_back(entry(7, 1.0));
  EXPECT_THROW(apply_result_batch(std::move(foreign), {1}, outcomes,
                                  &committed),
               wire::Error);
  EXPECT_EQ(committed, std::vector<std::uint8_t>(3, 1));
  EXPECT_EQ(outcomes[0].result.value("x"), 5.0);
  EXPECT_EQ(outcomes[1].result.value("x"), 10.0);
  EXPECT_EQ(outcomes[2].result.value("x"), 20.0);

  // A doubled or foreign answer is rejected atomically under a partly
  // committed mask: a valid entry for an uncommitted cell ahead of the
  // bad one writes nothing, and the mask stays as it was.
  std::vector<CellOutcome> partial_outcomes(3);
  std::vector<std::uint8_t> partial{0, 1, 0};
  ResultBatch doubled;  // right size, but cell 2 answered twice, 1 never
  doubled.entries.push_back(entry(0, 1.0));
  doubled.entries.push_back(entry(2, 1.0));
  doubled.entries.push_back(entry(2, 2.0));
  EXPECT_THROW(apply_result_batch(std::move(doubled), {0, 1, 2},
                                  partial_outcomes, &partial),
               wire::Error);
  ResultBatch stray;
  stray.entries.push_back(entry(0, 1.0));
  stray.entries.push_back(entry(7, 1.0));
  EXPECT_THROW(apply_result_batch(std::move(stray), {0, 1}, partial_outcomes,
                                  &partial),
               wire::Error);
  ResultBatch under;
  under.entries.push_back(entry(2, 1.0));
  EXPECT_THROW(apply_result_batch(std::move(under), {1, 2}, partial_outcomes,
                                  &partial),
               wire::Error);
  EXPECT_EQ(partial, (std::vector<std::uint8_t>{0, 1, 0}));
  for (const CellOutcome& outcome : partial_outcomes) {
    EXPECT_TRUE(outcome.result.metrics().empty());
  }
}

TEST(ApplyResultBatchTest, AnswersMayComeInAnyOrder) {
  // The slot lookup is by index, not by position: a worker may answer a
  // large batch in any order, and every outcome lands in its own cell.
  std::vector<std::size_t> outstanding;
  ResultBatch batch;
  for (std::size_t k = 0; k < 200; ++k) {
    outstanding.push_back(3 * k + 1);
  }
  for (std::size_t k = 200; k-- > 0;) {
    ResultSet r("test", "cell");
    r.set("x", static_cast<double>(3 * k + 1));
    CellOutcome outcome;
    outcome.result = std::move(r);
    batch.entries.push_back({3 * k + 1, std::move(outcome)});
  }
  std::vector<CellOutcome> outcomes(600);
  EXPECT_EQ(apply_result_batch(std::move(batch), outstanding, outcomes).size(),
            200u);
  for (const std::size_t index : outstanding) {
    EXPECT_EQ(outcomes[index].result.value("x"),
              static_cast<double>(index));
  }
}

TEST(ShardSpecTest, PartitionIsDisjointAndComplete) {
  const std::size_t total = 23;
  for (std::size_t count : {1u, 2u, 3u, 5u, 23u, 31u}) {
    std::vector<bool> seen(total, false);
    for (std::size_t index = 0; index < count; ++index) {
      for (std::size_t cell :
           shard_cell_indices(total, ShardSpec{index, count})) {
        ASSERT_LT(cell, total);
        EXPECT_FALSE(seen[cell]) << "cell " << cell << " owned twice";
        seen[cell] = true;
        EXPECT_TRUE((ShardSpec{index, count}.owns(cell)));
      }
    }
    for (std::size_t cell = 0; cell < total; ++cell) {
      EXPECT_TRUE(seen[cell]) << "cell " << cell << " unowned at k = "
                              << count;
    }
  }
}

TEST(GridFingerprintTest, SensitiveToEveryExperimentKnob) {
  const std::vector<Scenario> base = mc_grid(17);
  const std::uint64_t reference = grid_fingerprint(base);
  EXPECT_EQ(grid_fingerprint(mc_grid(17)), reference);  // deterministic
  // A different master seed, sample budget or grid size must all change
  // the fingerprint - that is what stops mismatched shards merging.
  EXPECT_NE(grid_fingerprint(mc_grid(18)), reference);
  std::vector<Scenario> fewer_samples = mc_grid(17);
  for (Scenario& cell : fewer_samples) {
    cell.samples(cell.samples() / 2);
  }
  EXPECT_NE(grid_fingerprint(fewer_samples), reference);
  std::vector<Scenario> shorter(base.begin(), base.end() - 1);
  EXPECT_NE(grid_fingerprint(shorter), reference);
}

TEST(GridFingerprintTest, ValuesArePinned) {
  // Journals persist the fingerprint, and --resume and --merge refuse a
  // journal whose fingerprint differs: an edit to the hash, the
  // byte stream it covers or the grid expansion must not slip through
  // unnoticed.  The literals are the FNV-1a of the wire form.
  EXPECT_EQ(grid_fingerprint(mc_grid(17)), 0xa2150d622b67870cULL);
  EXPECT_EQ(grid_fingerprint({}), 0xa8c7f832281a39c5ULL);
}

}  // namespace
}  // namespace rbx

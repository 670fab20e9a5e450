// The dispatch-core contract: any mix of lanes produces bitwise the same
// outcomes as evaluating the cells directly in a serial loop, worker
// crashes are recovered by respawn + re-admission instead of shrinking
// the pool, and each run's SweepResult reports what recovery did.
#include "core/dispatch.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/analytic_backend.h"
#include "core/backend.h"
#include "core/executor.h"
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

// The ground truth no scheduler may deviate from: the cells evaluated one
// by one on the calling thread, no wire round-trip, no batching.
std::vector<ResultSet> direct_reference(const std::vector<Scenario>& cells,
                                        const CellFn& fn) {
  std::vector<ResultSet> out;
  out.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out.push_back(fn(cells[i], i));
  }
  return out;
}

TEST(DispatchCoreTest, ThreadAndForkLanesTogetherMatchDirectEvaluation) {
  const std::vector<Scenario> cells = mc_grid(17);
  const CellFn fn = backend_fn();
  const std::vector<ResultSet> reference = direct_reference(cells, fn);

  ForkLane forks(2);
  ThreadLane threads(2);
  DispatchOptions options;
  options.batch_size = 1;
  options.steal = true;  // legal on any multi-worker run now
  options.quiet = true;
  DispatchCore core({&forks, &threads}, options);

  const auto outcomes = core.run(cells, fn).outcomes;
  ASSERT_EQ(outcomes.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << "cell " << i << ": "
                                  << outcomes[i].error;
    EXPECT_EQ(outcomes[i].result, reference[i]) << "cell " << i;
  }
}

TEST(DispatchCoreTest, SingleThreadLaneMatchesDirectEvaluation) {
  // The lane every sweep defaults to must reproduce the direct loop bit
  // for bit even though cells now round-trip the wire format.
  const std::vector<Scenario> cells = mc_grid(29);
  const CellFn fn = backend_fn();
  const std::vector<ResultSet> reference = direct_reference(cells, fn);

  ThreadLane lane(1);
  const auto outcomes = DispatchCore({&lane}).run(cells, fn).outcomes;
  ASSERT_EQ(outcomes.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].result, reference[i]) << "cell " << i;
  }
}

TEST(DispatchCoreTest, ForkWorkerRespawnCountsAsReadmission) {
  // One fork worker, one poisonous cell: the crash kills the whole pool,
  // the respawn (a revival, counted as re-admission) restores it, the
  // rerun kills it again, and only then is the cell failed.  Everything
  // else still evaluates on the respawned workers.
  const std::vector<Scenario> cells(6, Scenario::symmetric(2, 1.0, 1.0));
  ForkLane lane(1);
  DispatchOptions options;
  options.batch_size = 1;
  options.quiet = true;
  DispatchCore core({&lane}, options);

  const SweepResult sweep =
      core.run(cells, [](const Scenario& s, std::size_t i) {
        if (i == 2) {
          ::_exit(77);
        }
        ResultSet out("test", s.label());
        out.set("index", static_cast<double>(i));
        return out;
      });
  const std::vector<CellOutcome>& outcomes = sweep.outcomes;
  ASSERT_EQ(outcomes.size(), 6u);
  EXPECT_FALSE(outcomes[2].ok());
  EXPECT_NE(outcomes[2].error.find("two lost workers"), std::string::npos)
      << outcomes[2].error;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 2) {
      continue;
    }
    EXPECT_TRUE(outcomes[i].ok()) << "cell " << i << ": "
                                  << outcomes[i].error;
  }
  // The pool was revived at least twice (once per kill).
  EXPECT_GE(sweep.readmitted_workers, 2u);
  EXPECT_EQ(sweep.stolen_cells, 0u);

  // The counters belong to the run, not the core: a clean second run on
  // the same core reports none.
  const std::vector<Scenario> clean(2, Scenario::symmetric(2, 1.0, 1.0));
  const SweepResult again =
      core.run(clean, [](const Scenario& s, std::size_t) {
        return ResultSet("test", s.label());
      });
  EXPECT_EQ(again.readmitted_workers, 0u);
}

TEST(DispatchCoreTest, QuietRunWithoutFailuresLeavesCountersAtZero) {
  const std::vector<Scenario> cells = mc_grid(31);
  const CellFn fn = backend_fn();
  ThreadLane lane(4);
  const SweepResult sweep = DispatchCore({&lane}).run(cells, fn);
  for (const CellOutcome& outcome : sweep.outcomes) {
    EXPECT_TRUE(outcome.ok()) << outcome.error;
  }
  EXPECT_EQ(sweep.stolen_cells, 0u);
  EXPECT_EQ(sweep.readmitted_workers, 0u);
}

// --- ThreadLane's in-memory exchange under stealing ----------------------

// Cheap analytic cells (a different model per cell), for tests whose
// timing is set by sleeps rather than by evaluation.
std::vector<Scenario> analytic_grid(std::size_t count) {
  std::vector<Scenario> cells;
  for (std::size_t i = 0; i < count; ++i) {
    const double rho = 0.25 + 0.125 * static_cast<double>(i);
    cells.push_back(Scenario::symmetric(2 + i % 3, 1.0, rho)
                        .scheme(i % 2 == 0 ? SchemeKind::kAsynchronous
                                           : SchemeKind::kSynchronized));
  }
  return cells;
}

// The wire bytes of a cell's outcome: "bitwise equal" means these match.
std::vector<std::byte> outcome_bytes(const CellOutcome& outcome) {
  EXPECT_TRUE(outcome.ok()) << outcome.error;
  wire::Writer w;
  outcome.result.encode(w);
  return w.take();
}

// Wraps the analytic backend: evaluation k (0-based) of cell i first
// sleeps sleep_ms(i, k) milliseconds.  Counts every evaluation.
struct SleepyCells {
  explicit SleepyCells(std::size_t count) : evaluations(count) {}
  CellFn fn(std::function<int(std::size_t, int)> sleep_ms) {
    return [this, sleep_ms](const Scenario& s, std::size_t i) {
      const int k = evaluations[i].fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms(i, k)));
      return analytic_backend().evaluate(s);
    };
  }
  std::vector<std::atomic<int>> evaluations;
};

TEST(DispatchCoreTest, ThreadLaneCommitsEachCellOnceAndDropsLateDuplicates) {
  // Cell 0 is slow on every evaluation, so the sweep lasts at least
  // 600 ms.  Cell 1 is slow only on its first evaluation: once the queue
  // is dry an idle worker steals it and answers at once, and the
  // straggler's copy lands ~200 ms in, while the sweep still runs.  That
  // late duplicate must be dropped: the hook fires once per cell, and
  // the outcomes are the bytes of a serial evaluate_cell loop.
  const std::vector<Scenario> cells = analytic_grid(12);
  SleepyCells sleepy(cells.size());
  const CellFn fn = sleepy.fn([](std::size_t i, int k) {
    return i == 0 ? 600 : (i == 1 && k == 0 ? 200 : 0);
  });

  ThreadLane lane(4);
  DispatchOptions options;
  options.batch_size = 1;
  options.steal = true;
  options.quiet = true;
  DispatchCore core({&lane}, options);
  std::vector<int> hooks(cells.size(), 0);
  core.set_commit_hook([&hooks](std::size_t index, const CellOutcome&) {
    ++hooks[index];
  });
  const SweepResult sweep = core.run(cells, fn);

  // Both copies of cell 1 ran (the thief's and the straggler's), yet the
  // cell committed once.
  EXPECT_EQ(sleepy.evaluations[1].load(), 2);
  EXPECT_GE(sweep.stolen_cells, 2u);  // cell 0 and cell 1
  ASSERT_EQ(sweep.outcomes.size(), cells.size());
  const CellFn plain = [](const Scenario& s, std::size_t) {
    return analytic_backend().evaluate(s);
  };
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(hooks[i], 1) << "cell " << i;
    EXPECT_EQ(outcome_bytes(sweep.outcomes[i]),
              outcome_bytes(evaluate_cell(plain, cells[i], i)))
        << "cell " << i;
  }
}

TEST(DispatchCoreTest, ThreadLaneFinishesWhileAStolenCellStillEvaluates) {
  // Cell 0's first evaluation sleeps 300 ms; a thief's copy answers at
  // once and completes the sweep while the straggler still sleeps.  run()
  // must join that worker cleanly (finish()), and a second run() on the
  // same lane must start from fresh workers and be correct.
  const std::vector<Scenario> cells = analytic_grid(4);
  SleepyCells sleepy(cells.size());
  const CellFn fn = sleepy.fn([](std::size_t i, int k) {
    return i == 0 && k == 0 ? 300 : 0;
  });
  const CellFn plain = [](const Scenario& s, std::size_t) {
    return analytic_backend().evaluate(s);
  };

  ThreadLane lane(4);
  DispatchOptions options;
  options.batch_size = 1;
  options.steal = true;
  options.quiet = true;
  DispatchCore core({&lane}, options);
  const SweepResult first = core.run(cells, fn);
  EXPECT_GE(first.stolen_cells, 1u);
  // finish() joined the straggler: its evaluation has returned.
  EXPECT_EQ(sleepy.evaluations[0].load(), 2);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(outcome_bytes(first.outcomes[i]),
              outcome_bytes(evaluate_cell(plain, cells[i], i)))
        << "cell " << i;
  }

  const std::vector<Scenario> again = analytic_grid(9);
  const SweepResult second = core.run(again, plain);
  ASSERT_EQ(second.outcomes.size(), again.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(outcome_bytes(second.outcomes[i]),
              outcome_bytes(evaluate_cell(plain, again[i], i)))
        << "cell " << i;
  }
}

TEST(DispatchCoreTest, NoLanesIsAnInfrastructureError) {
  const std::vector<Scenario> cells(2, Scenario::symmetric(2, 1.0, 1.0));
  DispatchCore core({});
  EXPECT_THROW(core.run(cells, backend_fn()), std::runtime_error);
  // Empty input short-circuits before the lanes matter.
  EXPECT_TRUE(core.run({}, backend_fn()).outcomes.empty());
}

}  // namespace
}  // namespace rbx

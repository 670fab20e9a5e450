// Resume planning and the dispatch pre-committed seam: a journal's
// recovered state partitions the grid into winners and losers, the
// scheduler evaluates only the losers, and the merged output is bitwise
// identical to an uninterrupted run; a journal from a different grid
// refuses instead of mixing experiments.
#include "recov/resume.h"

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dispatch.h"
#include "core/executor.h"
#include "core/lane.h"
#include "core/result.h"
#include "core/scenario.h"
#include "recov/journal.h"
#include "support/wire.h"

namespace rbx {
namespace recov {
namespace {

ResultSet make_result(std::size_t cell) {
  ResultSet r("test", "cell-" + std::to_string(cell));
  r.set("value", 10.0 * static_cast<double>(cell), 0.0, 1);
  return r;
}

SweepState make_state(std::uint64_t fingerprint, std::uint64_t total,
                      const std::vector<std::size_t>& committed) {
  SweepState s;
  s.fingerprint = fingerprint;
  s.total_cells = total;
  s.options = "samples=100 nmax=4 seed=1";
  for (std::size_t c : committed) {
    s.committed.emplace_back(c, make_result(c));
  }
  return s;
}

TEST(ResumePlanTest, PartitionsDoneAndLostCells) {
  const SweepState state = make_state(0xfeedu, 5, {0, 3});
  const ResumePlan plan = plan_resume(state, 5, 0xfeedu);
  ASSERT_EQ(plan.committed.size(), 5u);
  ASSERT_EQ(plan.results.size(), 5u);
  EXPECT_EQ(plan.committed_cells(), 2u);
  EXPECT_FALSE(plan.complete());
  EXPECT_EQ(plan.lost, (std::vector<std::size_t>{1, 2, 4}));
  EXPECT_TRUE(plan.committed[0]);
  EXPECT_FALSE(plan.committed[1]);
  EXPECT_TRUE(plan.committed[3]);
  EXPECT_EQ(plan.results[0], make_result(0));
  EXPECT_EQ(plan.results[3], make_result(3));
}

TEST(ResumePlanTest, CompleteSweepHasNoLosers) {
  const SweepState state = make_state(0xfeedu, 3, {0, 1, 2});
  const ResumePlan plan = plan_resume(state, 3, 0xfeedu);
  EXPECT_TRUE(plan.complete());
  EXPECT_EQ(plan.committed_cells(), 3u);
}

TEST(ResumePlanTest, FingerprintMismatchRefuses) {
  // A journal written by a different grid (--samples, --seed, --nmax or a
  // different bench changed) must throw, and the message must carry the
  // journal's own options digest so the user can see what it was.
  const SweepState state = make_state(0xfeedu, 5, {0});
  try {
    plan_resume(state, 5, 0xbad0u);
    FAIL() << "fingerprint mismatch did not throw";
  } catch (const wire::Error& e) {
    EXPECT_NE(std::string(e.what()).find("samples=100 nmax=4 seed=1"),
              std::string::npos)
        << e.what();
  }
}

TEST(ResumePlanTest, CellCountMismatchRefuses) {
  const SweepState state = make_state(0xfeedu, 5, {0});
  EXPECT_THROW(plan_resume(state, 7, 0xfeedu), wire::Error);
}

// --- the dispatch seam ---------------------------------------------------

// The cells a sweep evaluated, recorded from concurrent ThreadLane workers.
struct Evaluated {
  std::mutex mutex;
  std::vector<std::size_t> cells;  // guarded by mutex
};

CellFn indexed_fn(Evaluated* evaluated) {
  return [evaluated](const Scenario& s, std::size_t i) {
    if (evaluated != nullptr) {
      const std::lock_guard<std::mutex> lock(evaluated->mutex);
      evaluated->cells.push_back(i);
    }
    ResultSet out("test", s.label());
    out.set("value", 10.0 * static_cast<double>(i), 0.0, 1);
    return out;
  };
}

TEST(DispatchResumeTest, PrecommittedCellsAreNotReEvaluated) {
  // Simulate a crash-resume: run a full sweep journaling through the
  // commit hook, seed a second run with half the outcomes pre-committed,
  // and require (a) only the losers were evaluated, (b) the merged
  // outcomes are identical to the uninterrupted run, (c) the hook fired
  // only for the losers.
  const std::vector<Scenario> cells(6, Scenario::symmetric(2, 1.0, 1.0));

  ThreadLane lane1(2);
  DispatchOptions opts;
  opts.quiet = true;
  DispatchCore full({&lane1}, opts);
  std::vector<std::size_t> full_commits;
  full.set_commit_hook([&full_commits](std::size_t i, const CellOutcome&) {
    full_commits.push_back(i);
  });
  const auto reference = full.run(cells, indexed_fn(nullptr)).outcomes;
  ASSERT_EQ(reference.size(), cells.size());
  EXPECT_EQ(full_commits.size(), cells.size());

  // The "journal": cells 0, 2, 4 survived the crash.
  std::vector<std::uint8_t> mask(cells.size(), 0);
  std::vector<CellOutcome> seed(cells.size());
  for (std::size_t i : {0u, 2u, 4u}) {
    mask[i] = 1;
    seed[i] = reference[i];
  }

  ThreadLane lane2(2);
  DispatchCore resumed({&lane2}, opts);
  resumed.set_precommitted(mask, seed);
  std::vector<std::size_t> resumed_commits;
  resumed.set_commit_hook(
      [&resumed_commits](std::size_t i, const CellOutcome&) {
        resumed_commits.push_back(i);
      });
  Evaluated evaluated;
  const auto outcomes = resumed.run(cells, indexed_fn(&evaluated)).outcomes;

  ASSERT_EQ(outcomes.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].result, reference[i].result) << "cell " << i;
  }
  // Only the losers were evaluated and only they fired the hook.
  std::sort(evaluated.cells.begin(), evaluated.cells.end());
  EXPECT_EQ(evaluated.cells, (std::vector<std::size_t>{1, 3, 5}));
  std::sort(resumed_commits.begin(), resumed_commits.end());
  EXPECT_EQ(resumed_commits, (std::vector<std::size_t>{1, 3, 5}));

  // The seam is one-shot: a further run starts clean and evaluates all.
  Evaluated again;
  const auto rerun = resumed.run(cells, indexed_fn(&again)).outcomes;
  ASSERT_EQ(rerun.size(), cells.size());
  EXPECT_EQ(again.cells.size(), cells.size());
}

TEST(DispatchResumeTest, FullyPrecommittedSweepTouchesNoWorker) {
  const std::vector<Scenario> cells(3, Scenario::symmetric(2, 1.0, 1.0));
  std::vector<std::uint8_t> mask(cells.size(), 1);
  std::vector<CellOutcome> seed(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    seed[i].result = make_result(i);
  }
  // No lanes at all: with every cell pre-committed nothing needs a worker,
  // so the usual "no lanes" infrastructure error must not fire.
  DispatchCore core({});
  core.set_precommitted(mask, seed);
  Evaluated evaluated;
  const auto outcomes = core.run(cells, indexed_fn(&evaluated)).outcomes;
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(evaluated.cells.empty());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(outcomes[i].result, make_result(i));
  }
}

TEST(DispatchResumeTest, MismatchedPrecommitSizesThrow) {
  const std::vector<Scenario> cells(4, Scenario::symmetric(2, 1.0, 1.0));
  ThreadLane lane(1);
  DispatchOptions opts;
  opts.quiet = true;
  DispatchCore core({&lane}, opts);
  core.set_precommitted(std::vector<std::uint8_t>(3, 0),
                        std::vector<CellOutcome>(3));
  EXPECT_THROW(core.run(cells, indexed_fn(nullptr)), std::runtime_error);
}

}  // namespace
}  // namespace recov
}  // namespace rbx

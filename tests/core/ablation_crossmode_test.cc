// Cross-mode identity for the newly registered ablation backends: the
// same EvalPlans the ported benches ship must come back bitwise equal
// whether the cells run on the calling thread, on an 8-thread lane, or
// in forked worker processes (a full wire round-trip per cell).  The
// fork lane is the load-bearing case - it proves prp_sync_period,
// scoped_prp and the SyncPolicy fields survive the Scenario codec, which
// is exactly what --workers/--connect rely on.
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/dispatch.h"
#include "core/executor.h"
#include "core/lane.h"

namespace rbx {
namespace {

// The ported benches' cell shapes, scaled down for test budgets.
std::vector<Scenario> ablation_cells() {
  std::vector<Scenario> cells;
  for (std::size_t n = 2; n <= 4; ++n) {
    cells.push_back(
        Scenario::symmetric(n, 1.0, 1.0).seed(100 + n).samples(300));
  }
  cells.push_back(Scenario::symmetric(3, 0.4, 3.0)
                      .scheme(SchemeKind::kPseudoRecoveryPoints)
                      .t_record(1e-4)
                      .error_rate(0.25)
                      .prp_sync_period(2.0)
                      .seed(20260610)
                      .samples(40));
  cells.push_back(Scenario::symmetric(5, 1.0, 1.0).seed(7));
  return cells;
}

// Per-cell plans: exact-line for the async cells, hybrid for the PRP
// cell, the structure inventory for the last (a plan mix in one sweep,
// like table1's analytic+mc plan).
EvalPlan plan_for_cell(const Scenario& s) {
  if (s.scheme() == SchemeKind::kPseudoRecoveryPoints) {
    return EvalPlan{{EvalStep{"hybrid", ""}}};
  }
  if (s.samples() == 0 || s.n() == 5) {
    return EvalPlan{{EvalStep{"markov-structure", ""}}};
  }
  return EvalPlan{{EvalStep{"line-exact", ""}}};
}

CellFn plan_fn() {
  return [](const Scenario& s, std::size_t) {
    return evaluate_plan(plan_for_cell(s), s);
  };
}

std::vector<ResultSet> direct_reference(const std::vector<Scenario>& cells) {
  std::vector<ResultSet> out;
  const CellFn fn = plan_fn();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out.push_back(fn(cells[i], i));
  }
  return out;
}

void run_and_compare(Lane& lane) {
  const std::vector<Scenario> cells = ablation_cells();
  const std::vector<ResultSet> reference = direct_reference(cells);
  DispatchOptions options;
  options.quiet = true;
  const auto outcomes =
      DispatchCore({&lane}, options).run(cells, plan_fn()).outcomes;
  ASSERT_EQ(outcomes.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << "cell " << i << ": "
                                  << outcomes[i].error;
    EXPECT_EQ(outcomes[i].result, reference[i]) << "cell " << i;
  }
}

TEST(AblationCrossModeTest, EightThreadsMatchDirectEvaluation) {
  ThreadLane lane(8);
  run_and_compare(lane);
}

TEST(AblationCrossModeTest, ForkedWorkersMatchDirectEvaluation) {
  // Four forked workers: every cell and result crosses the wire format,
  // so a lossy Scenario codec (e.g. a dropped prp_sync_period) would
  // break bitwise identity here before it broke a cluster run.
  ForkLane lane(4);
  run_and_compare(lane);
}

}  // namespace
}  // namespace rbx

// Monte-Carlo (discrete-event) evaluation of a Scenario via des/.
//
// Dispatches on the scenario's scheme:
//
//  * kAsynchronous - AsyncRbSimulator::run_lines(samples, error_rate):
//    "mean_interval_x" with its CI, per-process "rp_count_i" under the
//    three counting conventions, and "line_age" when errors are injected.
//  * kSynchronized - SyncRbSimulator under the scenario's SyncPolicy:
//    "sync_mean_max_wait", "sync_mean_loss", "sync_loss_rate",
//    "sync_line_spacing", "sync_states_per_line" (+ its "_sd" spread),
//    and "sync_rollback_distance" (+ p95) when errors are injected.
//  * kPseudoRecoveryPoints - PrpSimulator until `samples` failures:
//    "prp_distance" (+ p95), the paired "async_distance" (+ p95),
//    affected-set sizes, domino counts, storage accounting, and the
//    hybrid-scheme metrics when prp_sync_period > 0.  Needs a positive
//    error rate.
//
// Sample-parallel: when the scenario's streams() > 1 the sample budget
// is partitioned into that many independent RNG sub-streams (seeds from
// derive_stream_seed), run as tasks of the ambient StreamPool
// (current_eval_context().pool; core/eval_context.h says how many threads
// each lane's pool lends a cell) and merged in fixed stream order.  With
// no pool installed the streams run in order on the calling thread.
// streams() == 1 is the exact historical sequential path.
//
// Deterministic: the same scenario (seed, streams included) produces
// bitwise identical results on any thread count of any machine - the
// property the sweep determinism and stream tests pin down.
#pragma once

#include "core/backend.h"
#include "des/async_sim.h"

namespace rbx {

class MonteCarloBackend : public EvalBackend {
 public:
  std::string name() const override { return "monte-carlo"; }
  bool supports(const Scenario& scenario) const override;
  ResultSet evaluate(const Scenario& scenario) const override;
};

// Runs the asynchronous-RB simulator over the scenario's full sample
// budget, honoring the streams() axis and the ambient stream pool.
// Shared by MonteCarloBackend and DensityMonteCarloBackend so the two
// agree bitwise on the underlying sample stream.
AsyncSimResult run_async_monte_carlo(const Scenario& scenario);

}  // namespace rbx

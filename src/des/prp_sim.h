// Monte-Carlo simulation of pseudo recovery points (paper Section 4), with
// a paired asynchronous-RB comparison.
//
// The simulator generates the Section 2.1 stochastic process (RPs at mu_i,
// pairwise interactions at lambda_ij), implants a PRP in every other
// process after each RP (the paper's implantation algorithm, with recording
// time t_r), and injects errors at a Poisson rate.  Error semantics:
//
//  * an error arises in one process and contaminates it from that moment;
//  * every interaction involving a contaminated party contaminates the
//    other party (error propagation);
//  * a contaminated process detects the error at its next acceptance test
//    (perfect local AT, assumption A2); the failed AT does not establish
//    an RP.
//
// On detection the Section 4 rollback algorithm runs (PrpRollbackPlanner);
// the same failure is also analyzed under plain asynchronous RBs
// (RollbackAnalyzer) on the same history, giving a paired comparison of
// rollback distances, affected-set sizes and domino frequency.  The
// simulator verifies ground-truth cleanliness of every PRP restart line:
// each restored state must predate the contamination of its process.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "model/params.h"
#include "support/rng.h"
#include "support/stats.h"

namespace rbx {

struct PrpSimParams {
  double t_record = 1e-4;      // state-recording time t_r
  double error_rate = 0.05;    // system-wide Poisson error rate
  // When false, PRP restores only pull in processes that interacted with
  // the rollback pointer (scoped variant; see PrpRollbackPlanner).
  bool affects_everyone = true;
  // Hybrid scheme (the paper's conclusion: "optimal solutions may be a
  // combination of these three categories"): a synchronized recovery line
  // is additionally established every sync_period time units (0 = off).
  // Syncs while an error is latent are skipped - their acceptance tests
  // would abort the commit - so established sync lines are always clean.
  // If the Section 4 pointer loop would roll any process past the newest
  // sync line, the whole system restores that line instead (the Section 3
  // semantics), capping the rollback distance.
  double sync_period = 0.0;
};

struct PrpSimResult {
  // Pseudo-recovery-point scheme.
  SampleSet prp_distance;        // sup rollback distance per failure
  SampleSet prp_affected;        // processes rolled back per failure
  SampleSet prp_iterations;      // pointer-loop iterations per failure
  // Plain asynchronous RBs on the same failures.
  SampleSet async_distance;
  SampleSet async_affected;
  std::size_t async_domino_count = 0;   // failures that reached t = 0
  std::size_t failures = 0;
  // Every PRP restart line was verified clean against ground truth.
  std::size_t contaminated_restarts = 0;
  // Storage/time accounting.
  double snapshots_per_unit_time = 0.0;  // system-wide, includes PRPs
  double rp_per_unit_time = 0.0;         // RPs only (the async baseline)
  double recording_time_fraction = 0.0;  // (n-1) t_r per RP, amortized
  double horizon = 0.0;
  // Hybrid scheme (sync_period > 0): the distance with the sync-line cap
  // applied, the number of failures that fell back to the sync line, and
  // the number of sync lines established (for loss-rate accounting).
  SampleSet hybrid_distance;
  std::size_t hybrid_sync_restores = 0;
  std::size_t sync_lines_established = 0;

  // Merges another run's result into this one (sample-parallel streams):
  // sample accumulators combine via Chan et al., counters sum, and the
  // per-unit-time rates recombine horizon-weighted - algebraically the
  // same as recomputing them from the summed RP counts over the summed
  // horizon, since each rate is (count * constant) / horizon.
  void merge(const PrpSimResult& other);
};

class PrpSimulator {
 public:
  PrpSimulator(ProcessSetParams params, PrpSimParams sim,
               std::uint64_t seed);

  // Resets the RNG to a fresh seed, keeping the event-draw tables, so one
  // instance can run several sub-streams in turn.  reseed(s) + run is
  // bitwise identical to a new simulator constructed with seed s.
  void reseed(std::uint64_t seed) { rng_ = Rng(seed); }

  // Runs until `failures` errors have been detected and recovered.
  PrpSimResult run(std::size_t failures);

 private:
  ProcessSetParams params_;
  PrpSimParams sim_;
  Rng rng_;
  // Event-draw tables (n RPs, the positive-rate pairs, then the error
  // source), built once here instead of at every run() call.
  std::vector<double> weights_;
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;
  std::size_t error_category_ = 0;
  double total_rate_ = 0.0;
};

}  // namespace rbx

// Monte-Carlo simulation of asynchronous recovery blocks.
//
// Replays the stochastic process of paper Section 2.1 exactly: recovery
// points of P_i form a Poisson process with rate mu_i and each pair (i, j)
// interacts after Exp(lambda_ij) intervals.  Two observers run on the event
// stream:
//
//  * the *model observer* tracks the paper's Markov state (the last-action
//    bit per process) and samples the interval X between returns to the
//    all-ones state plus the per-process state-saving counts L_i - this is
//    the "computer simulation" behind the paper's Table 1 and validates the
//    analytic chain;
//  * the *exact observer* maintains the full history and the maximal
//    recovery line under the paper's pairwise definition, sampling how
//    often the true line advances - the model is conservative (it misses
//    lines whose combinations mix old and new RPs), and this observer
//    quantifies the gap (ablation ABL-LINE in DESIGN.md).
#pragma once

#include <cstdint>
#include <vector>

#include "model/params.h"
#include "support/rng.h"
#include "support/stats.h"

namespace rbx {

struct AsyncSimResult {
  SampleSet interval;                        // X samples (model semantics)
  // L_i under the three counting conventions of AsyncRbModel::RpCounts.
  std::vector<RunningStats> rp_incl_final;   // convention (a)
  std::vector<RunningStats> rp_excl_final;   // convention (b)
  std::vector<RunningStats> rp_state_changing;  // convention (c)
  // Age of the newest recovery line at Poisson-sampled error instants
  // (only populated by run_lines(lines, error_rate) with a positive rate);
  // its mean converges to E[X^2] / (2 E[X]) - the stationary rollback
  // distance to the model's last line.
  SampleSet line_age;

  // Merges another run's result into this one (sample-parallel streams,
  // core/monte_carlo_backend.cc): every accumulator is a SampleSet or
  // RunningStats, so the merge is the Chan et al. combine throughout.
  // Both results must come from the same process count (RBX_CHECKed).
  void merge(const AsyncSimResult& other);
};

struct ExactLineResult {
  // Interval between successive advancements of the maximal recovery line
  // (any component moves).
  SampleSet any_advance;
  // Interval between "full refreshes": every component strictly newer than
  // at the previous full refresh.
  SampleSet full_refresh;
  // Model-semantics X measured on the same trajectory (paired comparison).
  SampleSet model_interval;
};

class AsyncRbSimulator {
 public:
  AsyncRbSimulator(ProcessSetParams params, std::uint64_t seed);

  // Resets the RNG to a fresh seed while keeping the event tables and
  // per-line scratch, so one instance can run several sub-streams in
  // turn.  reseed(s) followed by run_lines is bitwise identical to
  // constructing a new simulator with seed s.
  void reseed(std::uint64_t seed) { rng_ = Rng(seed); }

  // Simulates until `lines` recovery lines have formed (model semantics).
  // With error_rate > 0, errors arrive as an independent Poisson process
  // and the age of the newest line is sampled at each arrival.
  AsyncSimResult run_lines(std::size_t lines, double error_rate = 0.0);

  // Simulates `events` RP/interaction events, tracking both observers.
  ExactLineResult run_exact(std::size_t events);

 private:
  struct EventDraw {
    double dt;
    bool is_rp;
    std::size_t a;  // process (RP) or first party (interaction)
    std::size_t b;  // second party (interaction only)
  };
  EventDraw next_event();

  ProcessSetParams params_;
  Rng rng_;
  // Event categories: n RPs, then the positive-rate pairs.  The table's
  // total is the rate of the whole event stream.
  CategoricalTable event_table_;
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;
  // Per-line RP counters, reused across run_lines calls (reset at every
  // line) instead of allocating per run.
  std::vector<std::size_t> incl_scratch_;
  std::vector<std::size_t> state_changing_scratch_;
};

}  // namespace rbx

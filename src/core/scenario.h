// Scenario: the single configuration artifact of the library.
//
// A Scenario is a value type describing one experiment on a set of
// cooperating concurrent processes: the stochastic rates of the paper's
// Section 2.1 model (ProcessSetParams), which recovery scheme is under
// study (SchemeKind), the fault-injection knobs, the Monte-Carlo budget and
// the thread-runtime workload shape.  The same Scenario can be handed to
// any EvalBackend - the analytic Markov models, the discrete-event
// simulators or the real checkpoint/rollback runtime - which is what lets
// one experiment definition be cross-validated across all three semantics
// (see core/backend.h).
//
// Scenarios are cheap to copy; the fluent setters return *this so sweep
// code can derive cells from a base scenario in one expression:
//
//   Scenario base = Scenario::symmetric(3, 1.0, 1.0)
//                       .scheme(SchemeKind::kAsynchronous)
//                       .samples(20000);
//   Scenario cell = Scenario(base).seed(derive_cell_seed(master, i));
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "des/sync_sim.h"     // SyncStrategy, SyncSimParams
#include "des/prp_sim.h"      // PrpSimParams
#include "model/params.h"
#include "runtime/system.h"   // SchemeKind, RuntimeConfig
#include "support/wire.h"

namespace rbx {

// How the synchronized scheme decides when to request a recovery line
// (paper Section 3's three strategies); consumed by the Monte-Carlo
// backend's commit simulator.
struct SyncPolicy {
  SyncStrategy strategy = SyncStrategy::kElapsedTime;
  double interval = 1.0;            // kConstantInterval: timer period
  double elapsed_threshold = 1.0;   // kElapsedTime: max line age
  std::size_t saved_threshold = 8;  // kSavedStates: states before request
};

// Workload shape for the thread runtime (step units rather than model
// time; see runtime/system.h for the field semantics).
struct RuntimeWorkload {
  std::size_t steps = 400;
  double message_probability = 0.25;
  double rp_probability = 0.08;
  double alternate_failure_probability = 0.0;
  std::size_t rb_alternates = 2;
  std::size_t sync_period_steps = 50;
};

class Scenario {
 public:
  explicit Scenario(ProcessSetParams params);

  // Homogeneous system: n processes, RP rate mu, pairwise rate lambda.
  static Scenario symmetric(std::size_t n, double mu, double lambda);
  // Processes with given RP rates and no interprocess communication
  // (lambda = 0); all the synchronized-scheme analysis needs.
  static Scenario from_mu(std::vector<double> mu);

  // --- process set ---
  const ProcessSetParams& params() const { return params_; }
  Scenario& params(ProcessSetParams p);
  std::size_t n() const { return params_.n(); }

  // --- scheme selection ---
  SchemeKind scheme() const { return scheme_; }
  Scenario& scheme(SchemeKind s);

  // --- determinism ---
  std::uint64_t seed() const { return seed_; }
  Scenario& seed(std::uint64_t s);

  // --- fault injection ---
  // System-wide Poisson error rate in model time (DES backends).
  double error_rate() const { return error_rate_; }
  Scenario& error_rate(double rate);
  // Probability that an acceptance test fails (thread runtime).
  double at_failure_probability() const { return at_failure_probability_; }
  Scenario& at_failure_probability(double p);

  // --- scheme knobs ---
  // State-recording time t_r of the PRP scheme (paper Section 4).
  double t_record() const { return t_record_; }
  Scenario& t_record(double t);
  const SyncPolicy& sync_policy() const { return sync_policy_; }
  Scenario& sync_policy(SyncPolicy policy);
  bool scoped_prp() const { return scoped_prp_; }
  Scenario& scoped_prp(bool scoped);
  // Hybrid PRP + periodic synchronized lines (0 = off).
  double prp_sync_period() const { return prp_sync_period_; }
  Scenario& prp_sync_period(double period);

  // --- workload ---
  // Monte-Carlo budget: recovery lines (async), synchronizations (sync)
  // or detected failures (PRP).
  std::size_t samples() const { return samples_; }
  Scenario& samples(std::size_t s);
  // Independent RNG sub-streams the Monte-Carlo budget is partitioned
  // into (core/monte_carlo_backend.cc).  Each stream k simulates its
  // share of samples() under derive_stream_seed(seed(), k) and the
  // partial results merge in fixed stream order, so the result depends
  // only on (scenario, streams) - never on how many threads evaluated
  // the streams.  streams() == 1 (the default) is the exact pre-stream
  // sequential path, bitwise identical to earlier releases.
  std::size_t streams() const { return streams_; }
  Scenario& streams(std::size_t k);
  const RuntimeWorkload& workload() const { return workload_; }
  Scenario& workload(RuntimeWorkload w);

  // Stable human-readable identifier, e.g. "async n=2 mu=(1,1)
  // lambda=(0.5) rho=0.25 seed=42"; used as the ResultSet scenario label.
  // Byte contract: the scheme tag, ProcessSetParams::describe() (doubles
  // as printf's %.6g in the C locale, the default std::ostream format),
  // " seed=" and the decimal seed, then " streams=K" only when K > 1.
  // Goldens and journals persist labels, so the text must never drift.
  std::string label() const;

  // --- wire form ---
  // Exact binary round-trip (support/wire.h): every knob, rates and seed,
  // with all doubles bit-preserved - the form the sweep executors ship to
  // worker processes and shard runs exchange between hosts.  decode throws
  // wire::Error on truncated data or out-of-range enum/rate values.
  void encode(wire::Writer& w) const;
  static Scenario decode(wire::Reader& r);

  // --- projections onto the pre-existing entry points ---
  RuntimeConfig runtime_config() const;
  SyncSimParams sync_sim_params() const;
  // RBX_CHECKs error_rate > 0: the PRP simulator runs until a failure
  // count is reached and would never terminate without injected errors.
  PrpSimParams prp_sim_params() const;

 private:
  ProcessSetParams params_;
  SchemeKind scheme_ = SchemeKind::kAsynchronous;
  std::uint64_t seed_ = 20260610;
  double error_rate_ = 0.0;
  double at_failure_probability_ = 0.0;
  double t_record_ = 0.01;
  SyncPolicy sync_policy_;
  bool scoped_prp_ = false;
  double prp_sync_period_ = 0.0;
  std::size_t samples_ = 20000;
  std::size_t streams_ = 1;
  RuntimeWorkload workload_;
};

}  // namespace rbx

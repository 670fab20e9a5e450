// EvalBackend: one interface over the library's three evaluation semantics.
//
// The paper validates every claim three ways - closed-form/Markov analysis,
// Monte-Carlo simulation of the Section 2.1 stochastic process, and a real
// thread runtime with checkpoint/rollback.  Each of those lives in its own
// layer (model/+markov/, des/, runtime/); EvalBackend is the seam that lets
// a single Scenario flow through any of them and come back as a ResultSet
// of named metrics:
//
//   const Scenario s = Scenario::symmetric(3, 1.0, 1.0);
//   for (const EvalBackend* b : all_backends()) {
//     ResultSet r = b->evaluate(s);
//     ...
//   }
//
// Backends share metric names where the semantics coincide (e.g.
// "mean_interval_x" is the analytic E[X] from the phase-type chain and the
// sample mean from the DES), so cross-backend validation is a join on
// metric name instead of per-experiment glue.  The registered backends are
// stateless singletons; evaluate() is const and safe to call concurrently
// from lane worker threads.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/result.h"
#include "core/scenario.h"
#include "support/wire.h"

namespace rbx {

class EvalBackend {
 public:
  virtual ~EvalBackend() = default;

  virtual std::string name() const = 0;

  // Whether this backend can evaluate the scenario (e.g. the full analytic
  // chain has 2^n + 1 states and caps n; the PRP simulator needs a
  // positive error rate).  evaluate() RBX_CHECKs the same conditions, so
  // misuse is loud either way.
  virtual bool supports(const Scenario& scenario) const;

  virtual ResultSet evaluate(const Scenario& scenario) const = 0;
};

// The standard backends (stateless singletons).
const EvalBackend& analytic_backend();      // model/ + markov/
const EvalBackend& monte_carlo_backend();   // des/
const EvalBackend& runtime_backend();       // runtime/ (real threads)
// The Figure 6 density grid, analytically and by simulation
// (core/density_backend.h).
const EvalBackend& density_analytic_backend();
const EvalBackend& density_monte_carlo_backend();
// The ablation evaluations (core/ablation_backend.h): the exact pairwise
// recovery-line comparison and the hybrid PRP + periodic-sync scheme.
const EvalBackend& exact_line_backend();
const EvalBackend& hybrid_scheme_backend();
// Markov chain-structure inventories (core/structure_backend.h).
const EvalBackend& markov_structure_backend();
// The Markov-engine timing kernels (perf/micro_backend.h).
const EvalBackend& markov_micro_backend();

// All registered backends, in the order above.
std::vector<const EvalBackend*> all_backends();

// Lookup by name ("analytic", "monte-carlo", "runtime",
// "density-analytic", "density-mc", "line-exact", "hybrid",
// "markov-structure", "micro-markov"); nullptr if unknown.
const EvalBackend* find_backend(const std::string& name);

// --- evaluation plans ----------------------------------------------------
//
// A serializable recipe for evaluating one sweep cell.  The bench lambdas
// all have the same shape - evaluate one backend, then merge() further
// backends under a metric prefix - and an EvalPlan is that shape as data,
// so a cell can be shipped to a worker daemon on another host
// (net/cluster.h) that has no access to the bench's closures.  Executing a
// plan locally and remotely calls the same backend singletons in the same
// order, which is what keeps cluster runs byte-identical to in-process
// runs.

struct EvalStep {
  std::string backend;  // registered backend name (find_backend)
  std::string prefix;   // merge() prefix; ignored for the first step
};

struct EvalPlan {
  std::vector<EvalStep> steps;  // at least one to be executable

  void encode(wire::Writer& w) const;
  // Throws wire::Error on malformed data (including an empty or
  // absurdly long step list).
  static EvalPlan decode(wire::Reader& r);
};

// Convenience: the one-step plan "evaluate on this backend".
EvalPlan plan_for(const EvalBackend& backend);

// Executes the plan: steps[0].backend evaluates the scenario, every later
// step merges its backend's evaluation under step.prefix.  Throws
// std::runtime_error for an empty plan or an unknown backend name.
ResultSet evaluate_plan(const EvalPlan& plan, const Scenario& scenario);

// How a sweep describes per-cell evaluation so it can run on any executor,
// including remote cluster workers; the index is the cell's position in
// the expanded grid (some benches vary the plan along the grid).
using PlanFn = std::function<EvalPlan(const Scenario&, std::size_t)>;

}  // namespace rbx

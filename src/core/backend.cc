#include "core/backend.h"

#include <iterator>
#include <stdexcept>

#include "core/ablation_backend.h"
#include "core/analytic_backend.h"
#include "core/density_backend.h"
#include "core/monte_carlo_backend.h"
#include "core/runtime_backend.h"
#include "core/structure_backend.h"
#include "perf/micro_backend.h"

namespace rbx {

bool EvalBackend::supports(const Scenario& scenario) const {
  (void)scenario;
  return true;
}

const EvalBackend& analytic_backend() {
  static const AnalyticBackend backend;
  return backend;
}

const EvalBackend& monte_carlo_backend() {
  static const MonteCarloBackend backend;
  return backend;
}

const EvalBackend& runtime_backend() {
  static const RuntimeBackend backend;
  return backend;
}

const EvalBackend& density_analytic_backend() {
  static const DensityAnalyticBackend backend;
  return backend;
}

const EvalBackend& density_monte_carlo_backend() {
  static const DensityMonteCarloBackend backend;
  return backend;
}

const EvalBackend& exact_line_backend() {
  static const ExactLineBackend backend;
  return backend;
}

const EvalBackend& hybrid_scheme_backend() {
  static const HybridSchemeBackend backend;
  return backend;
}

const EvalBackend& markov_structure_backend() {
  static const MarkovStructureBackend backend;
  return backend;
}

const EvalBackend& markov_micro_backend() {
  static const MarkovMicroBackend backend;
  return backend;
}

namespace {

// The registry, in all_backends() order.  Each name is its backend's
// name(); tests/core/backend_test.cc pins that they agree.
struct Registered {
  const char* name;
  const EvalBackend& (*get)();
};
constexpr Registered kRegistry[] = {
    {"analytic", analytic_backend},
    {"monte-carlo", monte_carlo_backend},
    {"runtime", runtime_backend},
    {"density-analytic", density_analytic_backend},
    {"density-mc", density_monte_carlo_backend},
    {"line-exact", exact_line_backend},
    {"hybrid", hybrid_scheme_backend},
    {"markov-structure", markov_structure_backend},
    {"micro-markov", markov_micro_backend},
};

}  // namespace

std::vector<const EvalBackend*> all_backends() {
  std::vector<const EvalBackend*> out;
  out.reserve(std::size(kRegistry));
  for (const Registered& r : kRegistry) {
    out.push_back(&r.get());
  }
  return out;
}

// Called for every plan step of every cell: no vector, no name() string.
const EvalBackend* find_backend(const std::string& name) {
  for (const Registered& r : kRegistry) {
    if (name == r.name) {
      return &r.get();
    }
  }
  return nullptr;
}

// Far above any real plan (plans are 1-3 steps); a corrupt count field
// fails here instead of as a huge allocation.
static constexpr std::uint32_t kMaxPlanSteps = 64;

void EvalPlan::encode(wire::Writer& w) const {
  if (steps.empty() || steps.size() > kMaxPlanSteps) {
    throw wire::Error("eval plan: " + std::to_string(steps.size()) +
                      " steps is not encodable (want 1.." +
                      std::to_string(kMaxPlanSteps) + ")");
  }
  w.u32(static_cast<std::uint32_t>(steps.size()));
  for (const EvalStep& step : steps) {
    w.str(step.backend);
    w.str(step.prefix);
  }
}

EvalPlan EvalPlan::decode(wire::Reader& r) {
  const std::uint32_t count = r.u32();
  if (count == 0 || count > kMaxPlanSteps) {
    throw wire::Error("eval plan: invalid step count " +
                      std::to_string(count));
  }
  EvalPlan plan;
  plan.steps.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    EvalStep step;
    step.backend = r.str();
    step.prefix = r.str();
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

EvalPlan plan_for(const EvalBackend& backend) {
  return EvalPlan{{EvalStep{backend.name(), ""}}};
}

ResultSet evaluate_plan(const EvalPlan& plan, const Scenario& scenario) {
  if (plan.steps.empty()) {
    throw std::runtime_error("eval plan: no steps");
  }
  ResultSet out;
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    const EvalStep& step = plan.steps[i];
    const EvalBackend* backend = find_backend(step.backend);
    if (backend == nullptr) {
      throw std::runtime_error("eval plan: unknown backend '" +
                               step.backend + "'");
    }
    if (i == 0) {
      out = backend->evaluate(scenario);
    } else {
      out.merge(backend->evaluate(scenario), step.prefix);
    }
  }
  return out;
}

}  // namespace rbx

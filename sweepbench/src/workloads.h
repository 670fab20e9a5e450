// The benchmark's workloads: each is a grid of seeded cells plus the plan
// every cell evaluates, built from the workload seed alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/scenario.h"

namespace sweepbench {

struct Workload {
  std::string name;
  std::vector<rbx::Scenario> cells;
  rbx::PlanFn plan_fn;
};

// Evaluation threads in every lane: 4 in-process threads, or (the remote
// pass) 2 daemons with 2 evaluation threads each.
inline constexpr std::size_t kLaneThreads = 4;
inline constexpr std::size_t kDaemons = 2;
inline constexpr std::size_t kDaemonEvalThreads = 2;

// The names the benchmark accepts, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

// Builds workload `name` from `seed`; throws std::invalid_argument for an
// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

// The analytic-only grid's shape: n = 2..7 x kAnalyticRhoLevels rho
// levels x {async, sync, PRP} x kAnalyticSeeds cell seeds.
inline constexpr std::size_t kAnalyticRhoLevels = 40;
inline constexpr std::size_t kAnalyticSeeds = 84;

}  // namespace sweepbench

// Closed-form / Markov-chain evaluation of a Scenario (paper Sections 2-4).
//
// Dispatches on the scenario's scheme:
//
//  * kAsynchronous - the Section 2 phase-type chain.  For n <= 12 the full
//    2^n + 1 state model is solved ("mean_interval_x", "stddev_interval_x",
//    "mean_line_age", per-process "rp_count_i" in the three counting
//    conventions).  For homogeneous rates the lumped R1'-R4' chain is also
//    evaluated ("mean_interval_x_lumped", ...), and for n > 12 it is the
//    only representation (the full chain would be 4097+ states).
//  * kSynchronized - Section 3: "sync_mean_max_wait" (E[Z], closed form and
//    quadrature cross-check), "sync_mean_loss" (CL) and per-process
//    "sync_mean_wait_i".
//  * kPseudoRecoveryPoints - Section 4 overheads: snapshots and time
//    overhead per RP, recording fractions, and the E[sup y_i] rollback
//    bound.
//
// All metrics are exact (half_width = 0, count = 0); the seed and sample
// budget of the scenario are ignored.
//
// Solution cache: because the metrics depend only on (scheme, rates,
// t_record) - never on the seed, sample budget or label - grid cells that
// share those inputs share the entire chain build / LU / uniformization
// work.  evaluate() memoizes the solved metric list, keyed by the bit
// patterns of exactly those inputs, and re-labels cached metrics per cell,
// so a fig5-style sweep that varies the seed axis pays for each distinct
// parameter point once.  The stored list is frozen (core/result.h): a hit
// adopts it by pointer (insertion order, unique names, doubles
// bit-preserved), so cached and fresh evaluations are bitwise identical
// (pinned by tests/perf/analytic_cache_test.cc).  A hit costs the key,
// one lookup, one refcount taken under the shard lock and the cell's
// label; a caller that later set()s or merge()s into the hit clones the
// list first and never touches the entry.  The cache is
// striped across kCacheShards independently-locked shards selected by the
// key's hash (sweep threads share the backend singleton; a single mutex
// serialized every lookup and showed up as contention in the threaded
// perf kernels - see perf kernel analytic_cache_hits_t8).  Each shard
// resets independently when it reaches its share of kMaxCachedModels,
// which bounds memory on adversarial grids.  Construct with
// cache_models=false to force every evaluation to solve from scratch.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/backend.h"

namespace rbx {

class AnalyticBackend : public EvalBackend {
 public:
  static constexpr std::size_t kMaxCachedModels = 4096;
  // Power of two well above any realistic sweep thread count: two threads
  // only contend when their keys collide mod 16.
  static constexpr std::size_t kCacheShards = 16;

  AnalyticBackend() : AnalyticBackend(true) {}
  explicit AnalyticBackend(bool cache_models)
      : cache_models_(cache_models) {}

  std::string name() const override { return "analytic"; }
  bool supports(const Scenario& scenario) const override;
  ResultSet evaluate(const Scenario& scenario) const override;

  // Cache observability (tests and perf tooling): total entries across
  // all shards.
  std::size_t cached_models() const;

 private:
  struct CacheShard {
    std::mutex mutex;
    // Frozen lists (core/result.h): a hit shares one, never copies it.
    std::unordered_map<std::string,
                       std::shared_ptr<const std::vector<Metric>>>
        entries;
  };
  CacheShard& shard_for(const std::string& key) const;

  bool cache_models_;
  mutable CacheShard shards_[kCacheShards];
};

}  // namespace rbx

#include "core/analytic_backend.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "model/async_model.h"
#include "model/async_symmetric.h"
#include "model/prp_model.h"
#include "model/sync_model.h"
#include "support/check.h"

namespace rbx {

namespace {

// Largest n for which the full 2^n + 1 state chain is built (matches the
// AsyncRbModel cap).
constexpr std::size_t kFullChainMaxN = 12;
// For homogeneous rates the lumped R1'-R4' chain is an exact lumping of the
// full model (pinned state-by-state in tests/model/async_symmetric_test.cc),
// so above this n the O(8^n) full chain adds nothing over the O(n^3) lumped
// solve and is skipped.
constexpr std::size_t kFullChainSymmetricMaxN = 7;

void evaluate_async(const Scenario& s, ResultSet& out) {
  const ProcessSetParams& p = s.params();
  const std::size_t n = p.n();
  const bool lumped_exact = p.is_symmetric_rates() && n >= 2;
  RBX_CHECK_MSG(n <= kFullChainMaxN || p.is_symmetric_rates(),
                "async analytic model needs n <= 12 or homogeneous rates");
  const bool full_chain =
      n <= (lumped_exact ? kFullChainSymmetricMaxN : kFullChainMaxN);
  // Marker for consumers that must distinguish full-chain numbers from
  // promoted lumped ones (e.g. fig5's cross-check column).
  out.set("async_full_chain", full_chain ? 1.0 : 0.0);
  if (full_chain) {
    AsyncRbModel model(p);
    out.set("mean_interval_x", model.mean_interval());
    out.set("variance_interval_x", model.variance_interval());
    out.set("stddev_interval_x", std::sqrt(model.variance_interval()));
    out.set("mean_line_age", model.mean_line_age());
    for (std::size_t i = 0; i < n; ++i) {
      const AsyncRbModel::RpCounts counts = model.expected_rp_count(i);
      out.set(indexed_metric("rp_count_", i), counts.wald);
      out.set(indexed_metric("rp_count_excl_", i), counts.excluding_final);
      out.set(indexed_metric("rp_count_statechg_", i), counts.state_changing);
    }
  }
  if (lumped_exact) {
    SymmetricAsyncModel lumped(n, p.mu(0), p.lambda(0, 1));
    out.set("mean_interval_x_lumped", lumped.mean_interval());
    out.set("variance_interval_x_lumped", lumped.variance_interval());
    out.set("stddev_interval_x_lumped",
            std::sqrt(lumped.variance_interval()));
    out.set("mean_line_age_lumped", lumped.mean_line_age());
    out.set("rp_count_lumped", lumped.expected_rp_count_wald());
    if (!full_chain) {
      // The lumped chain is the exact model here; promote its numbers to
      // the shared metric names so cross-backend joins keep working.
      out.set("mean_interval_x", lumped.mean_interval());
      out.set("variance_interval_x", lumped.variance_interval());
      out.set("stddev_interval_x", std::sqrt(lumped.variance_interval()));
      out.set("mean_line_age", lumped.mean_line_age());
      for (std::size_t i = 0; i < n; ++i) {
        out.set(indexed_metric("rp_count_", i),
                lumped.expected_rp_count_wald());
      }
    }
  }
}

void evaluate_sync(const Scenario& s, ResultSet& out) {
  SyncRbModel model(s.params().mu());
  out.set("sync_mean_max_wait", model.mean_max_wait());
  out.set("sync_mean_max_wait_quadrature", model.mean_max_wait_quadrature());
  out.set("sync_mean_loss", model.mean_loss());
  for (std::size_t i = 0; i < model.n(); ++i) {
    out.set(indexed_metric("sync_mean_wait_", i), model.mean_wait(i));
  }
}

void evaluate_prp(const Scenario& s, ResultSet& out) {
  PrpModel model(s.params(), s.t_record());
  out.set("prp_snapshots_per_rp",
          static_cast<double>(model.snapshots_per_rp()));
  out.set("prp_time_overhead_per_rp", model.time_overhead_per_rp());
  out.set("prp_snapshot_rate", model.snapshot_rate(0));
  out.set("prp_system_snapshot_rate", model.system_snapshot_rate());
  out.set("prp_retained_snapshots_per_process",
          static_cast<double>(model.retained_snapshots_per_process()));
  out.set("prp_mean_rollback_bound", model.mean_rollback_bound());
  for (std::size_t i = 0; i < model.n(); ++i) {
    out.set(indexed_metric("prp_recording_fraction_", i),
            model.recording_fraction(i));
    out.set(indexed_metric("prp_mean_local_rollback_", i),
            model.mean_local_rollback(i));
  }
}

// The exact scenario inputs the evaluators above read: scheme, rates and
// t_record.  Everything else (seed, samples, label, workload, sync policy)
// is ignored by the analytic path, so it must stay out of the key -
// including it would only split identical solutions across entries.
// The key is the scheme byte, n, then the bit patterns of mu, lambda and
// t_record in native byte order, written straight into one pre-sized
// string (it never leaves the process).  n fixes both vector lengths, so
// no two inputs share a key.
std::string model_cache_key(const Scenario& s) {
  const std::vector<double>& mu = s.params().mu();
  const std::vector<double>& lambda = s.params().lambda_flat();
  const std::uint8_t scheme = static_cast<std::uint8_t>(s.scheme());
  const std::uint64_t n = mu.size();
  const double t_record = s.t_record();
  std::string key(sizeof scheme + sizeof n +
                      (mu.size() + lambda.size() + 1) * sizeof(double),
                  '\0');
  char* p = key.data();
  const auto put = [&p](const void* src, std::size_t bytes) {
    std::memcpy(p, src, bytes);
    p += bytes;
  };
  put(&scheme, sizeof scheme);
  put(&n, sizeof n);
  put(mu.data(), mu.size() * sizeof(double));
  put(lambda.data(), lambda.size() * sizeof(double));
  put(&t_record, sizeof t_record);
  return key;
}

void evaluate_scheme(const Scenario& scenario, ResultSet& out) {
  switch (scenario.scheme()) {
    case SchemeKind::kAsynchronous:
      evaluate_async(scenario, out);
      break;
    case SchemeKind::kSynchronized:
      evaluate_sync(scenario, out);
      break;
    case SchemeKind::kPseudoRecoveryPoints:
      evaluate_prp(scenario, out);
      break;
  }
}

}  // namespace

bool AnalyticBackend::supports(const Scenario& scenario) const {
  if (scenario.scheme() == SchemeKind::kAsynchronous) {
    return scenario.n() <= kFullChainMaxN ||
           scenario.params().is_symmetric_rates();
  }
  return true;
}

AnalyticBackend::CacheShard& AnalyticBackend::shard_for(
    const std::string& key) const {
  return shards_[std::hash<std::string>{}(key) % kCacheShards];
}

ResultSet AnalyticBackend::evaluate(const Scenario& scenario) const {
  if (!cache_models_) {
    ResultSet out(name(), scenario.label());
    evaluate_scheme(scenario, out);
    return out;
  }

  const std::string key = model_cache_key(scenario);
  // Formatted before taking the lock: the label is most of a hit's cost.
  std::string label = scenario.label();
  CacheShard& shard = shard_for(key);
  std::shared_ptr<const std::vector<Metric>> stored;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      stored = it->second;  // a refcount, nothing more, under the lock
    }
  }
  if (stored) {
    // Adopt the frozen list whole - insertion order, unique names,
    // doubles untouched - so the hit is bitwise identical to the
    // evaluation that populated the entry.
    return ResultSet(name(), std::move(label), std::move(stored));
  }

  // Solve outside the lock: concurrent sweep threads racing on the same
  // key duplicate work once, but the entries they store are identical.
  ResultSet out(name(), std::move(label));
  evaluate_scheme(scenario, out);
  std::shared_ptr<const std::vector<Metric>> frozen = out.freeze();
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.entries.size() >= kMaxCachedModels / kCacheShards) {
      // Live hits hold their own references; clearing drops only ours.
      shard.entries.clear();
    }
    shard.entries.emplace(key, std::move(frozen));
  }
  return out;
}

std::size_t AnalyticBackend::cached_models() const {
  std::size_t total = 0;
  for (CacheShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.entries.size();
  }
  return total;
}

}  // namespace rbx

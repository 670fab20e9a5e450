#include "core/executor.h"

#include <algorithm>
#include <stdexcept>

#include "support/check.h"

namespace rbx {

CellOutcome evaluate_cell(const CellFn& cell_fn, const Scenario& cell,
                          std::size_t index) {
  CellOutcome out;
  try {
    out.result = cell_fn(cell, index);
  } catch (const std::exception& e) {
    out.error = e.what();
    if (out.error.empty()) {
      out.error = "cell_fn threw an exception";
    }
  } catch (...) {
    out.error = "cell_fn threw a non-standard exception";
  }
  return out;
}

// --- batch payloads ------------------------------------------------------

void CellBatch::encode(wire::Writer& w) const {
  w.u32(static_cast<std::uint32_t>(cells.size()));
  for (const BatchCell& cell : cells) {
    w.u64(cell.index);
    w.u8(cell.has_plan ? 1 : 0);
    if (cell.has_plan) {
      cell.plan.encode(w);
    }
    cell.scenario.encode(w);
  }
}

CellBatch CellBatch::decode(wire::Reader& r) {
  const std::uint32_t count = r.u32();
  // Each cell needs at least index + flag; a corrupt count fails here
  // instead of as a huge allocation.
  if (r.remaining() / 9 < count) {
    throw wire::Error("cell batch: truncated cell list (claims " +
                      std::to_string(count) + " cells, " +
                      std::to_string(r.remaining()) + " bytes left)");
  }
  CellBatch out;
  out.cells.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t index = r.u64();
    const std::uint8_t has_plan = r.u8();
    if (has_plan > 1) {
      throw wire::Error("cell batch: invalid plan flag");
    }
    EvalPlan plan;
    if (has_plan != 0) {
      plan = EvalPlan::decode(r);
    }
    Scenario scenario = Scenario::decode(r);
    out.cells.push_back(BatchCell{index, std::move(scenario), has_plan != 0,
                                  std::move(plan)});
  }
  return out;
}

std::vector<std::byte> CellBatch::seal() const {
  // Encode straight into the framed buffer (begin/end_frame patch the
  // length in place) - one buffer, no payload copy.
  wire::Writer w;
  const std::size_t mark = w.begin_frame(kFrameCellBatch);
  encode(w);
  w.end_frame(mark);
  return w.take();
}

void ResultBatch::encode(wire::Writer& w) const {
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const Entry& entry : entries) {
    w.u64(entry.index);
    w.u8(entry.outcome.ok() ? 1 : 0);
    if (entry.outcome.ok()) {
      entry.outcome.result.encode(w);
    } else {
      w.str(entry.outcome.error);
    }
  }
}

ResultBatch ResultBatch::decode(wire::Reader& r) {
  const std::uint32_t count = r.u32();
  if (r.remaining() / 9 < count) {
    throw wire::Error("result batch: truncated entry list (claims " +
                      std::to_string(count) + " entries, " +
                      std::to_string(r.remaining()) + " bytes left)");
  }
  ResultBatch out;
  out.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Entry entry;
    entry.index = r.u64();
    const std::uint8_t ok = r.u8();
    if (ok > 1) {
      throw wire::Error("result batch: invalid outcome flag");
    }
    if (ok != 0) {
      entry.outcome.result = ResultSet::decode(r);
    } else {
      entry.outcome.error = r.str();
      if (entry.outcome.error.empty()) {
        // An empty error string would read as success (CellOutcome::ok).
        entry.outcome.error = "worker reported an unnamed failure";
      }
    }
    out.entries.push_back(std::move(entry));
  }
  return out;
}

std::vector<std::byte> ResultBatch::seal() const {
  wire::Writer w;
  const std::size_t mark = w.begin_frame(kFrameResultBatch);
  encode(w);
  w.end_frame(mark);
  return w.take();
}

std::size_t apply_result_batch(const ResultBatch& batch,
                               const std::vector<std::size_t>& outstanding,
                               std::vector<CellOutcome>& outcomes,
                               std::vector<std::uint8_t>* committed) {
  // Validate the entire batch before writing anything.  Under a
  // committed mask a write is *final* - the cluster's lose() path will
  // never re-queue a committed cell - so a batch that turns out to
  // violate the protocol must fail atomically: none of a provably
  // misbehaving worker's answers can be trusted, and failing the whole
  // batch re-runs all of its cells on a healthy worker.
  std::vector<bool> answered(outstanding.size(), false);
  for (const ResultBatch::Entry& entry : batch.entries) {
    const std::size_t index = static_cast<std::size_t>(entry.index);
    std::size_t slot = outstanding.size();
    for (std::size_t b = 0; b < outstanding.size(); ++b) {
      if (outstanding[b] == index && !answered[b]) {
        slot = b;
        break;
      }
    }
    if (slot == outstanding.size()) {
      throw wire::Error("worker answered cell " + std::to_string(index) +
                        " which is not in its batch");
    }
    answered[slot] = true;
  }
  for (std::size_t b = 0; b < answered.size(); ++b) {
    if (!answered[b]) {
      throw wire::Error("worker response is missing cell " +
                        std::to_string(outstanding[b]));
    }
  }
  std::size_t newly = 0;
  for (const ResultBatch::Entry& entry : batch.entries) {
    const std::size_t index = static_cast<std::size_t>(entry.index);
    if (committed != nullptr) {
      if ((*committed)[index] != 0) {
        continue;  // late duplicate: another worker's answer already won
      }
      (*committed)[index] = 1;
    }
    outcomes[index] = entry.outcome;
    ++newly;
  }
  return newly;
}

// --- sharding ------------------------------------------------------------

std::vector<std::size_t> shard_cell_indices(std::size_t total_cells,
                                            const ShardSpec& spec) {
  RBX_CHECK_MSG(spec.count >= 1, "shard count must be >= 1");
  RBX_CHECK_MSG(spec.index < spec.count, "shard index must be < count");
  std::vector<std::size_t> owned;
  for (std::size_t i = spec.index; i < total_cells; i += spec.count) {
    owned.push_back(i);
  }
  return owned;
}

std::uint64_t grid_fingerprint(const std::vector<Scenario>& cells) {
  // FNV-1a over the grid's wire form (endian-stable, so the fingerprint
  // matches across hosts): the cell count, then every cell's encoding.
  // The bytes are fed one cell at a time through one reused buffer, so
  // the whole grid's encoding is never held at once.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  wire::Writer w;
  const auto absorb = [&h, &w] {
    for (std::byte b : w.data()) {
      h ^= static_cast<std::uint8_t>(b);
      h *= 0x100000001b3ULL;
    }
    w.clear();
  };
  w.u64(cells.size());
  absorb();
  for (const Scenario& cell : cells) {
    cell.encode(w);
    absorb();
  }
  return h;
}

void ShardPartial::encode(wire::Writer& w) const {
  w.u64(shard.index);
  w.u64(shard.count);
  w.u64(total_cells);
  w.u64(fingerprint);
  w.u32(static_cast<std::uint32_t>(results.size()));
  for (const auto& [index, result] : results) {
    w.u64(index);
    result.encode(w);
  }
}

ShardPartial ShardPartial::decode(wire::Reader& r) {
  ShardPartial out;
  out.shard.index = static_cast<std::size_t>(r.u64());
  out.shard.count = static_cast<std::size_t>(r.u64());
  out.total_cells = static_cast<std::size_t>(r.u64());
  out.fingerprint = r.u64();
  if (out.shard.count == 0 || out.shard.index >= out.shard.count) {
    throw wire::Error("shard partial: invalid shard spec");
  }
  const std::uint32_t count = r.u32();
  if (r.remaining() / 8 < count) {
    throw wire::Error("shard partial: truncated result list");
  }
  // The result count determines what total_cells can honestly be: this
  // shard owns exactly ceil((total - index) / count_shards) cells.  A
  // corrupt total_cells field must fail here, not as a huge allocation
  // in merge_shard_partials.
  const std::size_t expected_owned =
      out.total_cells > out.shard.index
          ? (out.total_cells - out.shard.index - 1) / out.shard.count + 1
          : 0;
  if (count != expected_owned) {
    throw wire::Error("shard partial: " + std::to_string(count) +
                      " results do not match the declared grid of " +
                      std::to_string(out.total_cells) + " cells");
  }
  out.results.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t index = static_cast<std::size_t>(r.u64());
    if (index >= out.total_cells || !out.shard.owns(index)) {
      throw wire::Error("shard partial: cell " + std::to_string(index) +
                        " does not belong to this shard");
    }
    out.results.emplace_back(index, ResultSet::decode(r));
  }
  return out;
}

PartialMerger::PartialMerger(std::size_t total_cells,
                             std::size_t shard_count,
                             std::uint64_t fingerprint)
    : shard_count_(shard_count),
      fingerprint_(fingerprint),
      shard_seen_(shard_count, false),
      cell_seen_(total_cells, false),
      results_(total_cells) {
  if (shard_count == 0) {
    throw wire::Error("shard merge: shard count must be >= 1");
  }
}

void PartialMerger::apply(const ShardPartial& partial) {
  if (partial.shard.count != shard_count_ ||
      partial.total_cells != cell_seen_.size()) {
    throw wire::Error(
        "shard merge: partials disagree on the grid split (different "
        "shard count or cell total)");
  }
  if (partial.fingerprint != fingerprint_) {
    throw wire::Error(
        "shard merge: partials were produced from different grids "
        "(fingerprint mismatch - different --samples/--seed/options?)");
  }
  if (partial.shard.index >= shard_count_) {
    throw wire::Error("shard merge: invalid shard index " +
                      std::to_string(partial.shard.index));
  }
  if (shard_seen_[partial.shard.index]) {
    throw wire::Error("shard merge: shard " +
                      std::to_string(partial.shard.index) +
                      " appears twice");
  }
  // Validate before mutating, so a rejected partial leaves the merger
  // usable (a streaming caller may want to keep going without it).
  std::vector<std::size_t> indices;
  indices.reserve(partial.results.size());
  for (const auto& [index, result] : partial.results) {
    if (index >= cell_seen_.size() || !partial.shard.owns(index)) {
      throw wire::Error("shard merge: cell " + std::to_string(index) +
                        " does not belong to shard " +
                        std::to_string(partial.shard.index));
    }
    if (cell_seen_[index]) {
      throw wire::Error("shard merge: cell " + std::to_string(index) +
                        " appears twice");
    }
    indices.push_back(index);
  }
  std::vector<std::size_t> sorted = indices;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t k = 1; k < sorted.size(); ++k) {
    if (sorted[k] == sorted[k - 1]) {
      throw wire::Error("shard merge: cell " + std::to_string(sorted[k]) +
                        " appears twice");
    }
  }
  shard_seen_[partial.shard.index] = true;
  ++shards_applied_;
  for (const auto& [index, result] : partial.results) {
    cell_seen_[index] = true;
    results_[index] = result;
    ++cells_applied_;
  }
}

std::vector<ResultSet> PartialMerger::take() {
  for (std::size_t i = 0; i < cell_seen_.size(); ++i) {
    if (!cell_seen_[i]) {
      throw wire::Error("shard merge: cell " + std::to_string(i) +
                        " is missing from every partial");
    }
  }
  cell_seen_.clear();
  shard_seen_.clear();
  shards_applied_ = 0;
  cells_applied_ = 0;
  return std::move(results_);
}

std::vector<ResultSet> merge_shard_partials(
    const std::vector<ShardPartial>& partials) {
  if (partials.empty()) {
    throw wire::Error("shard merge: no partials given");
  }
  const std::size_t count = partials.front().shard.count;
  if (partials.size() != count) {
    throw wire::Error("shard merge: expected " + std::to_string(count) +
                      " partials (one per shard), got " +
                      std::to_string(partials.size()));
  }
  PartialMerger merger(partials.front().total_cells, count,
                       partials.front().fingerprint);
  for (const ShardPartial& partial : partials) {
    merger.apply(partial);
  }
  return merger.take();
}

}  // namespace rbx

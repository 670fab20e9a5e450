#include "core/executor.h"

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

}  // namespace rbx

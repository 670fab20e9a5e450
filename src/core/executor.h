// The currency of sweep evaluation, shared by every lane and by
// DispatchCore (core/dispatch.h), the one scheduler that evaluates cells:
//
//   CellFn / CellOutcome   how a cell is evaluated, and its result - a
//                          ResultSet or a per-cell error string (a thrown
//                          cell_fn, or a cell that was in flight on two
//                          workers that died);
//   CellBatch / ResultBatch
//                          the kCellBatch / kResultBatch frames a
//                          coordinator exchanges with thread, fork and
//                          remote workers;
//   ShardSpec              the multi-host split: shard i of k owns the
//                          cells with index % k == i.  A --shard run
//                          journals only its owned cells (recov/journal.h)
//                          and --merge unions the shards' journals into a
//                          result vector bitwise identical to an
//                          unsharded run (core/experiment.h).
//
// Because cells carry their seeds and the wire codec round-trips doubles
// bit-exactly, outcomes are bitwise identical on every lane mix - the
// contract tests/core/executor_test.cc pins down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/result.h"
#include "core/scenario.h"

namespace rbx {

// Evaluates one cell; must be safe to call concurrently (pure backends
// are).  The index is the cell's position in the expanded grid.
using CellFn = std::function<ResultSet(const Scenario&, std::size_t)>;

// Result of one cell: a ResultSet, or the error that prevented one.
struct CellOutcome {
  ResultSet result;
  std::string error;  // empty = success

  bool ok() const { return error.empty(); }
};

// Evaluates one cell, catching anything cell_fn throws into a per-cell
// error.  The one call every worker kind (thread, forked child, remote
// daemon via plans) funnels through.
CellOutcome evaluate_cell(const CellFn& cell_fn, const Scenario& cell,
                          std::size_t index);

// --- batch payloads ------------------------------------------------------
//
// The request/response currency between a coordinator and its workers -
// threads and forked children on socketpairs (core/lane.h) and remote
// daemons on TCP (net/cluster.h) exchange the same kCellBatch / kResultBatch
// frames, encoded by the codecs below.  A cell optionally carries an
// EvalPlan: forked children inherit the sweep's cell_fn closure and need
// none, while a remote daemon has no access to bench code and evaluates
// the plan instead.

struct BatchCell {
  std::uint64_t index;  // position in the expanded grid
  Scenario scenario;
  bool has_plan;
  EvalPlan plan;  // meaningful only when has_plan
};

struct CellBatch {
  std::vector<BatchCell> cells;

  void encode(wire::Writer& w) const;
  static CellBatch decode(wire::Reader& r);
  // The payload wrapped as a complete kFrameCellBatch frame.
  std::vector<std::byte> seal() const;
};

struct ResultBatch {
  struct Entry {
    std::uint64_t index;
    CellOutcome outcome;
  };
  std::vector<Entry> entries;

  void encode(wire::Writer& w) const;
  static ResultBatch decode(wire::Reader& r);
  // The payload wrapped as a complete kFrameResultBatch frame.
  std::vector<std::byte> seal() const;
};

// Checks that `batch` answers exactly the cells in `outstanding` - no
// missing, duplicated or foreign indices (a short response would otherwise
// leave empty-but-ok outcomes that only blow up much later) - and writes
// each outcome into outcomes[index].  Throws wire::Error on any mismatch,
// in which case nothing was written: the batch applies atomically, so a
// protocol-violating worker contributes no results and callers can re-run
// its whole batch elsewhere.
//
// `committed` is the per-cell in-flight bookkeeping a coordinator that
// replicates cells needs (work stealing in core/dispatch.cc dispatches a
// straggler's unanswered tail to a second worker, so the same cell can be
// answered twice): when non-null, an entry whose cell already has
// committed[index] set is a late duplicate and is ignored - the first
// answer won, and per-cell seeds make both answers bitwise identical
// anyway - while a first answer is written and marks committed[index].
// Returns how many outcomes were newly committed (== batch size when
// committed is null, where every answer is a first answer).
std::size_t apply_result_batch(const ResultBatch& batch,
                               const std::vector<std::size_t>& outstanding,
                               std::vector<CellOutcome>& outcomes,
                               std::vector<std::uint8_t>* committed = nullptr);

// --- sharding ------------------------------------------------------------

// Shard i of k: owns the expanded-grid cells with index % count == index.
// Round-robin (not contiguous blocks) so heterogeneous grids - e.g. cost
// growing with n along an axis - stay balanced across shards.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  bool active() const { return count > 1; }
  bool owns(std::size_t cell_index) const {
    return cell_index % count == index;
  }
};

// The (sorted) cell indices shard `spec` owns out of `total_cells`.
std::vector<std::size_t> shard_cell_indices(std::size_t total_cells,
                                            const ShardSpec& spec);

// Order-sensitive digest of a grid's wire encoding.  Cells carry their
// rates, knobs, budgets and seeds, so any option change that alters the
// experiment (--samples, --seed, a different bench) changes the
// fingerprint - which is how --resume and --merge refuse a journal
// written by a different run instead of mixing it into silently wrong
// tables.
std::uint64_t grid_fingerprint(const std::vector<Scenario>& cells);

// Wire frame types of the batch payloads.
inline constexpr std::uint16_t kFrameCellBatch = 1;
inline constexpr std::uint16_t kFrameResultBatch = 2;

}  // namespace rbx

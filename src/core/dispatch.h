// DispatchCore: the one scheduler every executor shares.
//
// InProcessExecutor, MultiProcessExecutor and net::ClusterExecutor used to
// each reimplement the same machinery - a cell queue, adaptive batch
// sizing, per-cell in-flight accounting under a committed mask, straggler
// work stealing, loss reconciliation and a streaming result merge.  All of
// that now lives here once, driving pluggable Lanes (core/lane.h): a
// worker is a framed channel, whether a thread, a forked child or a TCP
// daemon on another host, and one poll loop feeds them all.  The three
// executors are thin lane configurations; HybridExecutor runs any mix of
// lanes in a single sweep (`--threads=8 --workers=4 --connect=a:1,b:2`),
// and because per-cell seeds pin every evaluation, the output is byte-
// identical to a single-threaded run no matter how the cells were dealt.
//
// The scheduler applies the paper's backward error recovery to the worker
// pool itself:
//
//   loss       a worker that dies with a batch in flight has those cells
//              rolled back to the queue and re-run elsewhere (a cell that
//              is in flight on two lost workers is declared poisonous and
//              becomes a per-cell error instead of cascading);
//   stealing   with options.steal, an idle worker takes the back half of
//              the biggest straggler's unanswered sole-copy tail once the
//              queue is dry; first answer commits, late duplicates are
//              recognized by the committed mask and dropped;
//   re-admission
//              a lost worker whose lane can revive it (a ForkLane child
//              is respawned; a TcpLane endpoint is reconnected) is
//              retried on a doubling backoff timer, re-handshaken
//              against the same grid fingerprint, and rejoins the live
//              pool mid-sweep, taking queue or stolen work.
//
// None of loss, stealing or re-admission can change a printed table -
// only the wall-clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/executor.h"
#include "core/lane.h"

namespace rbx {

struct DispatchOptions {
  std::size_t batch_size = 0;  // cells per batch frame; 0 = adaptive
  // Re-dispatch a straggler's unanswered tail to idle workers once the
  // queue is empty (duplicate answers are deduped; output is unchanged).
  bool steal = false;
  // How long a worker's per-sweep Hello may go unanswered before it is
  // demoted to "lost" (it accepted TCP but never spoke the protocol).
  int handshake_timeout_ms = 10000;
  bool quiet = false;  // no stderr notes on loss/steal/re-admission
  // Mid-sweep re-admission: a lost worker that can_revive() is retried on
  // a backoff timer (base = the worker's revive_delay_ms, doubled per
  // consecutive failure), up to readmit_max_attempts tries per loss.
  bool readmit = true;
  int readmit_max_attempts = 5;
  // Ask remote daemons to bypass their result cache (--no-cache): set the
  // kHelloFlagNoCache bit in this sweep's handshake.
  bool no_cache = false;
};

class DispatchCore {
 public:
  DispatchCore(std::vector<Lane*> lanes, DispatchOptions options);

  // How workers that need_plan() (remote daemons) evaluate cells; local
  // thread/fork workers always run cell_fn.  Must be set before run()
  // whenever a plan-needing lane is configured.
  void set_plan_fn(PlanFn plan_fn) { plan_fn_ = std::move(plan_fn); }

  // Fired once per cell the moment its outcome becomes final - the commit
  // point a sweep journal (recov/journal.h) hangs off.  Called from the
  // dispatch thread, in commit order (not cell order).  Cells the run
  // never commits (no worker remaining) do not fire.
  using CommitHook = std::function<void(std::size_t, const CellOutcome&)>;
  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }

  // Seeds the NEXT run() with already-final outcomes (the redo pass of a
  // resumed sweep): cells with mask[i] != 0 take outcomes[i] verbatim,
  // are never enqueued and never reach a worker; only the losers are
  // evaluated.  One-shot - consumed by that run, later runs start clean.
  // The commit hook does not fire for pre-committed cells (they are
  // already in the journal).  mask and outcomes must match the grid the
  // next run() receives; run() throws std::runtime_error otherwise.
  void set_precommitted(std::vector<std::uint8_t> mask,
                        std::vector<CellOutcome> outcomes);

  // Evaluates every cell across the lanes; outcomes in cell order,
  // bitwise identical to a serial run of the same cell_fn.  Throws
  // std::runtime_error only for infrastructure failures (no usable
  // workers, poll failure, a plan-needing lane without a plan function);
  // worker loss is recovered, not thrown.
  std::vector<CellOutcome> run(const std::vector<Scenario>& cells,
                               const CellFn& cell_fn);

  // Cells re-dispatched from stragglers to idle workers - lifetime total
  // and the last run() alone (duplicated evaluation never shows in the
  // output, only in these counters).
  std::size_t stolen_cells() const { return stolen_total_; }
  std::size_t stolen_cells_last_run() const { return stolen_last_run_; }

  // Lost workers revived and re-admitted into the pool, same split.
  std::size_t readmitted_workers() const { return readmitted_total_; }
  std::size_t readmitted_workers_last_run() const {
    return readmitted_last_run_;
  }

 private:
  std::vector<Lane*> lanes_;
  DispatchOptions options_;
  PlanFn plan_fn_;
  CommitHook commit_hook_;
  bool have_precommitted_ = false;
  std::vector<std::uint8_t> precommitted_mask_;
  std::vector<CellOutcome> precommitted_outcomes_;
  std::size_t stolen_total_ = 0;
  std::size_t stolen_last_run_ = 0;
  std::size_t readmitted_total_ = 0;
  std::size_t readmitted_last_run_ = 0;
};

// Any mix of lanes behind the plain Executor interface - the executor
// behind `--threads=8 --workers=4 --connect=hostA:9000,hostB:9000`.
// Owns its lanes; per-sweep lanes (threads, forks) are raised and reaped
// per run() while persistent lanes (TCP) keep their connections across
// runs, so one HybridExecutor serves every sweep of a bench.
class HybridExecutor final : public Executor {
 public:
  explicit HybridExecutor(std::vector<std::unique_ptr<Lane>> lanes,
                          DispatchOptions options = DispatchOptions());
  ~HybridExecutor() override;

  std::string name() const override { return "hybrid"; }

  void set_plan_fn(PlanFn plan_fn) { core_.set_plan_fn(std::move(plan_fn)); }
  void set_commit_hook(DispatchCore::CommitHook hook) {
    core_.set_commit_hook(std::move(hook));
  }
  void set_precommitted(std::vector<std::uint8_t> mask,
                        std::vector<CellOutcome> outcomes) {
    core_.set_precommitted(std::move(mask), std::move(outcomes));
  }

  std::size_t stolen_cells() const { return core_.stolen_cells(); }
  std::size_t stolen_cells_last_run() const {
    return core_.stolen_cells_last_run();
  }
  std::size_t readmitted_workers() const {
    return core_.readmitted_workers();
  }
  std::size_t readmitted_workers_last_run() const {
    return core_.readmitted_workers_last_run();
  }

  std::vector<CellOutcome> run(const std::vector<Scenario>& cells,
                               const CellFn& cell_fn) const override;

 private:
  static std::vector<Lane*> raw_lanes(
      const std::vector<std::unique_ptr<Lane>>& lanes);

  std::vector<std::unique_ptr<Lane>> lanes_;
  mutable DispatchCore core_;
};

}  // namespace rbx

// The TCP lane of the dispatch layer, and ClusterExecutor - one sweep
// spanning many hosts.
//
// TcpLane turns remote sweep_workerd daemons into dispatch workers
// (core/lane.h): each endpoint is one LaneWorker whose FrameChannel is a
// TCP connection, cells ship with EvalPlans (a daemon cannot execute the
// sweep's local closures), and every sweep opens with the versioned Hello
// handshake.  The lane is *persistent*: connections survive across run()
// calls, so a bench with several sweeps handshakes each sweep (fresh grid
// fingerprint) over the same connections.
//
// All scheduling - adaptive batch sizing that shrinks toward the tail,
// streaming merge of kResultBatch frames as they arrive, worker-loss
// recovery that re-queues in-flight cells to the survivors, straggler
// work stealing, the parallel deadline handshake - lives in the shared
// core::DispatchCore; this file only supplies the workers.  What the TCP
// lane adds on top is *re-admission*, the paper's backward error recovery
// applied to the pool itself: a lost endpoint (dead socket, hung
// handshake, demoted mid-sweep) is reconnected on a doubling backoff
// timer without ever blocking the live sweep (non-blocking connect,
// finished in the dispatch poll loop), re-handshaken against the same
// grid fingerprint, and rejoins the live pool, taking queue or stolen
// work.  Per-cell seeds make recovery, stealing and re-admission all
// invisible in the printed tables.
//
// ClusterExecutor is the --connect=host:port,... lane configuration: one
// TcpLane over a DispatchCore behind the plain Executor interface.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/dispatch.h"
#include "core/executor.h"
#include "core/lane.h"
#include "net/frame.h"
#include "net/socket.h"

namespace rbx {
namespace net {

struct TcpLaneOptions {
  std::vector<Endpoint> endpoints;  // one per worker daemon
  // Extra connect attempts (200 ms apart) per endpoint on the first
  // sweep, riding out workers that are still starting up.
  int connect_retries = 10;
  bool quiet = false;  // no stderr note on an unreachable endpoint
  // Whether an entirely unreachable pool is fatal (a --connect-only run
  // must fail loudly) or survivable (a hybrid run falls back to its
  // local lanes).
  bool required = true;
  // Base backoff before re-admitting a lost endpoint; doubled per
  // consecutive failed attempt by the dispatch loop.
  int readmit_delay_ms = 500;
  // Pre-shared key for daemons running with --auth-key-file: the Hello
  // goes out auth-flagged and the workers' HMAC challenges are answered
  // (fleet/auth.h).  Empty = unauthenticated handshake.
  std::string auth_key;
};

// Remote sweep_workerd daemons as dispatch workers.
class TcpLane final : public Lane {
 public:
  explicit TcpLane(TcpLaneOptions options);
  ~TcpLane() override;

  std::string name() const override { return "tcp"; }

  // Workers with an open connection right now (before the first start():
  // the configured endpoint count).
  std::size_t live() const;

  // First call: blocking connect to every endpoint (unreachable ones are
  // noted on stderr and left to the re-admission timer; if *all* are
  // unreachable and options.required, throws net::Error).  Later calls
  // reuse the persistent connections.
  void start(std::size_t cell_count, const CellFn& cell_fn,
             std::vector<LaneWorker*>* out) override;
  void finish() override;  // keeps connections (persistent lane)

 private:
  struct Remote;

  TcpLaneOptions options_;
  bool connected_ = false;
  std::vector<std::unique_ptr<Remote>> remotes_;
};

struct ClusterOptions {
  std::vector<Endpoint> endpoints;  // one per worker daemon
  std::size_t batch_size = 0;       // cells per batch; 0 = adaptive
  // Extra connect attempts (200 ms apart) per endpoint, riding out
  // workers that are still starting up.
  int connect_retries = 10;
  bool quiet = false;  // no stderr notes on worker loss
  // Re-dispatch a straggler's unanswered tail to idle workers once the
  // queue is empty (duplicate answers are deduped; output is unchanged).
  bool steal = false;
  // How long the per-sweep Hello may go unanswered before the worker is
  // demoted to "lost" (it accepted TCP but never spoke the protocol).
  // Must comfortably exceed a straggler's worst batch time, since a
  // stolen-from worker flushes its stale answers ahead of the ack.
  int handshake_timeout_ms = 10000;
  // Mid-sweep re-admission of lost workers (see TcpLaneOptions).
  bool readmit = true;
  int readmit_delay_ms = 500;
  int readmit_max_attempts = 5;
  // Pre-shared key for authenticated daemons (see TcpLaneOptions).
  std::string auth_key;
};

// The --connect lane configuration: one TcpLane over a DispatchCore.
class ClusterExecutor final : public Executor {
 public:
  explicit ClusterExecutor(ClusterOptions options);
  ~ClusterExecutor() override;

  std::string name() const override { return "cluster"; }

  // How remote workers evaluate cells.  Must be set before run() - the
  // cell_fn passed to run() is a local closure the remote side cannot
  // execute, so evaluation goes through serializable plans instead
  // (core/backend.h); SweepRunner sets this per sweep.
  void set_plan_fn(PlanFn plan_fn) { core_.set_plan_fn(std::move(plan_fn)); }

  // Workers still connected (before the first run: endpoints configured).
  std::size_t live_workers() const { return lane_->live(); }

  // Cells ever re-dispatched from a straggler to an idle worker: the
  // lifetime total across run() calls, and the last run() alone (tests
  // and smoke scripts assert the steal path actually fired; duplicated
  // evaluation never shows in the output).
  std::size_t stolen_cells() const { return core_.stolen_cells(); }
  std::size_t stolen_cells_last_run() const {
    return core_.stolen_cells_last_run();
  }

  // Lost workers revived and re-admitted mid-sweep, same split.
  std::size_t readmitted_workers() const {
    return core_.readmitted_workers();
  }
  std::size_t readmitted_workers_last_run() const {
    return core_.readmitted_workers_last_run();
  }

  // Evaluates every cell on the remote workers; outcomes in cell order,
  // bitwise identical to InProcessExecutor running the same plans.  The
  // cell_fn argument is unused (see set_plan_fn).  Throws net::Error if
  // no worker is reachable and std::runtime_error if no plan function is
  // set; worker loss mid-sweep is recovered - and the worker re-admitted
  // when it comes back - not thrown.
  std::vector<CellOutcome> run(const std::vector<Scenario>& cells,
                               const CellFn& cell_fn) const override;

 private:
  std::unique_ptr<TcpLane> lane_;
  mutable DispatchCore core_;
};

}  // namespace net
}  // namespace rbx

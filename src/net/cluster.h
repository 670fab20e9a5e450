// TcpLane: the --connect lane of the dispatch layer - one sweep spanning
// many hosts.
//
// TcpLane turns remote sweep_workerd daemons into dispatch workers
// (core/lane.h): each endpoint is one FramedWorker over a TCP
// connection, cells ship with EvalPlans (a daemon cannot execute the
// sweep's local closures), and every sweep opens with the versioned Hello
// handshake.  The lane is *persistent*: connections survive across run()
// calls, so a bench with several sweeps handshakes each sweep (fresh grid
// fingerprint) over the same connections.
//
// All scheduling - adaptive batch sizing that shrinks toward the tail,
// streaming merge of kResultBatch frames as they arrive, worker-loss
// recovery that re-queues in-flight cells to the survivors, straggler
// work stealing, the parallel deadline handshake - lives in the shared
// DispatchCore (core/dispatch.h); this file only supplies the workers.
// What the TCP lane adds on top is *re-admission*, the paper's backward
// error recovery applied to the pool itself: a lost endpoint (dead socket, hung
// handshake, demoted mid-sweep) is reconnected on a doubling backoff
// timer without ever blocking the live sweep (non-blocking connect,
// finished in the dispatch poll loop), re-handshaken against the same
// grid fingerprint, and rejoins the live pool, taking queue or stolen
// work.  Per-cell seeds make recovery, stealing and re-admission all
// invisible in the printed tables.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

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

}  // namespace net
}  // namespace rbx

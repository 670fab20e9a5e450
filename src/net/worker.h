// The worker side of the cluster transport: a server that evaluates cell
// batches for remote coordinators.
//
// One WorkerServer owns one listening TCP port and serves coordinators
// *concurrently*: each accepted connection becomes a session on its own
// thread, so a second coordinator no longer wedges in the accept backlog
// while the first one holds its sweep.  Sessions are independent - each
// keeps its own handshake state and batch counter - and cap at
// `max_coordinators`; a coordinator beyond the cap is refused with a
// kFrameError instead of being silently queued.
//
// Cells arrive as kFrameCellBatch frames carrying EvalPlans - the worker
// has no access to bench code, so a cell without a plan is answered with
// a per-cell error - and every batch is answered with one
// kFrameResultBatch frame.  A session must complete the versioned Hello
// handshake before any batch; work sent first is refused with
// kFrameError and the session is hung up (it would bypass the
// protocol/wire-version/fingerprint checks).  Backends are stateless
// singletons (core/backend.h), so sessions evaluate concurrently without
// shared state.
//
// The logic lives in the library (not in tools/sweep_workerd.cc) so tests
// can run a real worker on a loopback socket inside a thread, including
// the loss path: `fail_after` makes the worker drop a session with a
// batch in flight after serving N batches on it, which is how both
// tests/net/cluster_test.cc and the CI smoke job exercise the
// coordinator's re-queue recovery deterministically; `delay_ms` stalls
// every batch, the deterministic "straggler" for work-stealing tests.
//
// A daemon needs no special support for mid-sweep re-admission: a
// coordinator that lost this worker and reconnects is just a new session
// that must complete the same Hello handshake (the coordinator refuses
// its own reconnect if the fingerprint no longer matches its sweep) -
// which is why killing a daemon and restarting it, even mid-sweep, is an
// operation the fleet absorbs (tests/net/hybrid_test.cc and the CI
// re-admission smoke restart one deterministically).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/frame.h"
#include "net/socket.h"
#include "recov/cache.h"

namespace rbx {
namespace net {

struct WorkerOptions {
  std::uint16_t port = 0;      // 0 = ephemeral (tests); port() has the truth
  bool once = false;           // serve one connection, then return
  std::size_t fail_after = 0;  // drop the session instead of serving its
                               // batch N+1 (simulated worker loss); 0 = off
  bool quiet = false;          // no stderr notes
  std::size_t max_coordinators = 4;  // concurrent sessions; beyond this a
                                     // coordinator is refused, not queued
  std::size_t delay_ms = 0;    // artificial stall before each batch - a
                               // deterministic straggler for steal tests
  std::string cache_dir;       // non-empty: remember every evaluated cell
                               // in DIR/cache.rbxj and answer repeats from
                               // it (recov/cache.h); coordinators opt out
                               // per session with the no-cache Hello flag
  std::size_t cache_max_bytes = 0;  // startup size cap for the cache file
                                    // (oldest entries dropped, file
                                    // compacted); 0 = unlimited
  std::string auth_key;        // non-empty: every session must prove key
                               // possession in an HMAC challenge/response
                               // during the Hello handshake, and any lease
                               // it presents must carry a valid signature
                               // under the same key (fleet/auth.h); a
                               // keyless or wrong-keyed coordinator is
                               // refused with a kFrameError, never hung
  std::size_t eval_threads = 1;  // threads per session that run a cell's
                                 // Monte-Carlo streams: the session thread
                                 // plus N - 1 helpers of its StreamPool
                                 // (core/eval_context.h); results are
                                 // identical for any value - this daemon
                                 // owns the knob, --eval-threads=N
};

class WorkerServer {
 public:
  // Binds and listens immediately (throws net::Error on failure), so the
  // port is known - and connectable - before serve() is entered.
  explicit WorkerServer(const WorkerOptions& options);
  ~WorkerServer();  // stops and joins any remaining session threads

  std::uint16_t port() const { return listener_.port(); }

  // Accept-and-serve loop.  Returns false as soon as the fail_after hook
  // trips on any session (the daemon exits non-zero: this worker counts
  // as killed, and every other session is dropped with it); returns true
  // after one connection with options.once or after stop(); otherwise
  // loops forever, serving up to max_coordinators sessions at a time.
  bool serve();

  // Thread-safe shutdown: unblocks the accept loop and every session so
  // serve() returns.  Tests use this to stop a serve-forever daemon.
  void stop();

 private:
  // One coordinator session until EOF; false = fail_after tripped.
  bool serve_connection(FrameConn& conn);

  struct Session {
    explicit Session(Socket sock) : conn(std::move(sock)) {}
    FrameConn conn;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  // Joins sessions whose threads have finished; with `all`, aborts and
  // joins every session (shutdown).
  void reap_sessions(bool all);

  WorkerOptions options_;
  Listener listener_;
  // The shared result cache (--cache-dir); sessions consult and fill it
  // concurrently (ResultCache is internally locked).  Null = no cache.
  std::unique_ptr<recov::ResultCache> cache_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> failed_{false};
  std::mutex sessions_mutex_;
  std::list<std::unique_ptr<Session>> sessions_;
  // The once-mode connection, served inline by serve() rather than as a
  // Session; registered here (under sessions_mutex_) so stop() can
  // abort a recv() blocked on it.  Null outside a once-mode session.
  FrameConn* once_conn_ = nullptr;
};

}  // namespace net
}  // namespace rbx

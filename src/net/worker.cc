#include "net/worker.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.h"
#include "core/eval_context.h"
#include "core/executor.h"
#include "fleet/auth.h"
#include "support/io.h"

namespace rbx {
namespace net {

namespace {

bool send_error(FrameConn& conn, const std::string& message) {
  wire::Writer w;
  w.str(message);
  return conn.send(kFrameError, w.data());
}

// Half-close, then drain until the peer hangs up (bounded).  Used when
// refusing a coordinator whose frames may still be unread - it pipelines
// its Hello right after connect, and a close() with unread data makes
// the kernel send RST, which can destroy the refusal frame before the
// coordinator reads it; the "loud" refusal would arrive as a bare
// connection reset.
void linger_close(FrameConn& conn) {
  if (!conn.open()) {
    return;
  }
  ::shutdown(conn.fd(), SHUT_WR);
  std::byte sink[1024];
  for (int i = 0; i < 20; ++i) {  // at most ~2 s for a wedged peer
    pollfd pfd{conn.fd(), POLLIN, 0};
    const int ready = io::poll_retry(&pfd, 1, 100);
    if (ready < 0) {
      break;
    }
    if (ready == 0) {
      continue;
    }
    if (io::read_some(conn.fd(), sink, sizeof(sink)) <= 0) {
      break;  // peer read the error and closed (or died)
    }
  }
}

CellOutcome evaluate_batch_cell(const BatchCell& cell) {
  CellOutcome out;
  if (!cell.has_plan) {
    out.error = "cell carries no evaluation plan (local-only cell_fn?)";
    return out;
  }
  try {
    out.result = evaluate_plan(cell.plan, cell.scenario);
  } catch (const std::exception& e) {
    out.error = e.what();
    if (out.error.empty()) {
      out.error = "cell evaluation threw an exception";
    }
  } catch (...) {
    out.error = "cell evaluation threw a non-standard exception";
  }
  return out;
}

}  // namespace

WorkerServer::WorkerServer(const WorkerOptions& options)
    : options_(options), listener_(options.port) {
  if (!options_.cache_dir.empty()) {
    recov::ResultCache::Options cache_options;
    cache_options.max_bytes = options_.cache_max_bytes;
    cache_ = std::make_unique<recov::ResultCache>(options_.cache_dir,
                                                  cache_options);
    if (!options_.quiet) {
      std::fprintf(stderr,
                   "sweep_workerd: result cache at %s (%zu entries "
                   "recovered)\n",
                   cache_->path().c_str(), cache_->entries());
    }
  }
}

WorkerServer::~WorkerServer() {
  stop();
  reap_sessions(/*all=*/true);
}

void WorkerServer::stop() {
  stopping_.store(true);
  listener_.abort();
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  for (auto& session : sessions_) {
    session->conn.abort();
  }
  if (once_conn_ != nullptr) {
    once_conn_->abort();
  }
}

void WorkerServer::reap_sessions(bool all) {
  std::vector<std::unique_ptr<Session>> taken;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (all || (*it)->done.load()) {
        taken.push_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join outside the lock: a session in its fail_after path takes the
  // lock to abort its peers, and must never wait on a holder that is
  // itself blocked joining a thread.
  for (auto& session : taken) {
    if (all) {
      session->conn.abort();
    }
    if (session->thread.joinable()) {
      session->thread.join();
    }
  }
}

bool WorkerServer::serve() {
  for (;;) {
    Socket client;
    try {
      client = listener_.accept_client();
    } catch (const Error&) {
      if (stopping_.load() || failed_.load()) {
        break;  // abort()ed listener, not an infrastructure failure
      }
      reap_sessions(/*all=*/true);
      throw;
    }
    if (stopping_.load() || failed_.load()) {
      break;
    }
    if (options_.once) {
      FrameConn conn(std::move(client));
      // Register so stop() can abort a session blocked in recv(); the
      // re-check below closes the register-after-stop race.
      {
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        once_conn_ = &conn;
      }
      if (stopping_.load()) {
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        once_conn_ = nullptr;
        break;
      }
      if (!options_.quiet) {
        std::fprintf(stderr, "sweep_workerd: coordinator connected\n");
      }
      const bool keep_going = serve_connection(conn);
      if (!options_.quiet) {
        std::fprintf(stderr, "sweep_workerd: coordinator disconnected\n");
      }
      {
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        once_conn_ = nullptr;
      }
      return keep_going;
    }
    reap_sessions(/*all=*/false);
    std::size_t active = 0;
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      for (const auto& session : sessions_) {
        if (!session->done.load()) {
          ++active;
        }
      }
    }
    if (active >= options_.max_coordinators) {
      // Refuse loudly instead of queueing: a silently backlogged
      // coordinator looks exactly like a wedged daemon.  (A coordinator
      // that connects in the instant between a peer's disconnect and
      // its session thread retiring can be refused spuriously - that
      // window is a few instructions wide and indistinguishable from
      // connecting a moment earlier, while the pool really was full.)
      if (!options_.quiet) {
        std::fprintf(stderr,
                     "sweep_workerd: refused a coordinator (at the "
                     "--max-coordinators=%zu cap)\n",
                     options_.max_coordinators);
      }
      // Refuse on a detached thread: the coordinator pipelines its
      // Hello right behind connect(), and closing with it unread would
      // RST the refusal frame away, so the refusal must linger until
      // the peer reads it - but that drain (bounded at ~2 s against a
      // wedged peer) must never stall the accept loop, or refusals
      // would re-create the very backlog they exist to avoid.  The
      // thread owns nothing but the socket, so it may safely outlive
      // the server.
      std::thread([conn = FrameConn(std::move(client)), active,
                   cap = options_.max_coordinators]() mutable {
        send_error(conn, "worker is already serving " +
                             std::to_string(active) +
                             " coordinators (--max-coordinators=" +
                             std::to_string(cap) + ")");
        linger_close(conn);
      }).detach();
      continue;
    }
    auto session = std::make_unique<Session>(std::move(client));
    Session* raw = session.get();
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      sessions_.push_back(std::move(session));
    }
    raw->thread = std::thread([this, raw]() {
      if (!options_.quiet) {
        std::fprintf(stderr, "sweep_workerd: coordinator connected\n");
      }
      const bool keep_going = serve_connection(raw->conn);
      // Hang up now - a refused peer waiting for EOF must see it when
      // the session ends, not when the next accept happens to reap this
      // Session.  abort(), which leaves the fd owned, is the call that
      // is safe against a concurrent stop(); the fd itself is released
      // when the session is reaped.
      raw->conn.abort();
      // Retire from the max-coordinators head count the moment the
      // session's work is over (reap_sessions join-blocks until the
      // thread truly exits, so the early store is safe).
      raw->done.store(true);
      if (!options_.quiet) {
        std::fprintf(stderr, "sweep_workerd: coordinator disconnected\n");
      }
      if (!keep_going) {
        // Simulated kill (fail_after): the whole worker counts as dead,
        // so every session - and the accept loop - goes down with it.
        failed_.store(true);
        listener_.abort();
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        for (auto& other : sessions_) {
          if (other.get() != raw) {
            other->conn.abort();
          }
        }
      }
    });
  }
  reap_sessions(/*all=*/true);
  return !failed_.load();
}

bool WorkerServer::serve_connection(FrameConn& conn) {
  // The session's stream pool: (--eval-threads - 1) helper threads that
  // live as long as the session and take the streams of every
  // evaluate_plan below alongside this thread.
  std::unique_ptr<StreamPool> pool;
  try {
    pool = std::make_unique<StreamPool>(
        std::max<std::size_t>(options_.eval_threads, 1) - 1);
  } catch (const std::exception& e) {
    send_error(conn, std::string("worker: cannot start the stream pool: ") +
                         e.what());
    return true;
  }
  EvalContextScope eval_scope(EvalContext{pool.get()});
  // Per-session state: the handshake, the fail_after counter and the
  // cache opt-out belong to this coordinator's session, not to the
  // daemon - concurrent sessions must not see each other's progress.
  bool handshaken = false;
  bool session_no_cache = false;
  std::size_t batches_served = 0;
  std::size_t cells_evaluated = 0;
  std::size_t cells_cached = 0;
  // The session summary line CI's cache-smoke greps for ("evaluated=0"
  // proves the second run came entirely from the cache); printed on every
  // exit path of a session that served cells.
  struct SessionSummary {
    const std::size_t& evaluated;
    const std::size_t& cached;
    bool quiet;
    ~SessionSummary() {
      if (!quiet && evaluated + cached > 0) {
        std::fprintf(stderr,
                     "sweep_workerd: session done: cells=%zu evaluated=%zu "
                     "cached=%zu\n",
                     evaluated + cached, evaluated, cached);
      }
    }
  } summary{cells_evaluated, cells_cached, options_.quiet};
  for (;;) {
    wire::Frame frame;
    bool got = false;
    try {
      got = conn.recv(&frame);
    } catch (const wire::Error& e) {
      // Corrupt framing: tell the coordinator why, then hang up.  It will
      // re-queue whatever it had in flight with us.
      send_error(conn, std::string("worker: corrupt request stream: ") +
                           e.what());
      return true;
    }
    if (!got) {
      return true;  // coordinator closed the connection
    }
    try {
      if (frame.type == kFrameHello) {
        wire::Reader r(frame.payload);
        const Hello hello = Hello::decode(r);
        r.expect_done();
        if (hello.protocol != kProtocolVersion) {
          send_error(conn, "worker speaks cluster protocol " +
                               std::to_string(kProtocolVersion) +
                               ", coordinator sent " +
                               std::to_string(hello.protocol));
          return true;
        }
        if (hello.wire_version != wire::kVersion) {
          send_error(conn, "worker encodes wire version " +
                               std::to_string(wire::kVersion) +
                               ", coordinator sent " +
                               std::to_string(hello.wire_version));
          return true;
        }
        if (!options_.auth_key.empty()) {
          // Key possession first: the refusal must be a loud error frame
          // (the dispatch loop prints it and gives up), never a hang.
          if ((hello.flags & kHelloFlagAuth) == 0) {
            send_error(conn,
                       "worker requires authentication (--auth-key-file); "
                       "coordinator presented no key");
            return true;
          }
          const std::string challenge = fleet::make_challenge();
          wire::Writer cw;
          cw.str(challenge);
          if (!conn.send(kFrameAuthChallenge, cw.data())) {
            return true;
          }
          wire::Frame reply;
          if (!conn.recv(&reply) || reply.type != kFrameAuthResponse) {
            send_error(conn, "worker: expected an auth response");
            return true;
          }
          wire::Reader rr(reply.payload);
          const std::string mac = rr.str();
          rr.expect_done();
          if (!fleet::mac_equal(
                  mac, fleet::auth_mac(options_.auth_key, challenge))) {
            send_error(conn,
                       "worker: authentication failed (wrong "
                       "--auth-key-file?)");
            return true;
          }
        }
        if ((hello.flags & kHelloFlagLease) != 0 &&
            hello.lease_sig !=
                fleet::lease_sig(options_.auth_key, hello.lease_token)) {
          // A forged (or mis-keyed) registry grant: refuse even though the
          // coordinator holds the transport key - admission is the
          // registry's call, and its signature is the proof.
          send_error(conn,
                     "worker: fleet lease signature is invalid (not issued "
                     "by this fleet's registry?)");
          return true;
        }
        wire::Writer w;
        hello.encode(w);  // echo, fingerprint and flags included
        if (!conn.send(kFrameHelloAck, w.data())) {
          return true;
        }
        handshaken = true;
        session_no_cache = (hello.flags & kHelloFlagNoCache) != 0;
        if (session_no_cache && cache_ != nullptr && !options_.quiet) {
          std::fprintf(stderr,
                       "sweep_workerd: coordinator asked for --no-cache; "
                       "bypassing the result cache this session\n");
        }
      } else if (frame.type == kFrameCellBatch) {
        if (!handshaken) {
          // Work before the handshake would bypass the protocol/wire
          // version and fingerprint checks; refuse and hang up.
          send_error(conn,
                     "worker: cell batch before the Hello handshake "
                     "(refusing unversioned work)");
          return true;
        }
        if (options_.fail_after != 0 &&
            batches_served >= options_.fail_after) {
          // Simulated kill: a batch is in flight and never answered.
          // abort(), not close(): stop() or another failing session may
          // concurrently abort() this FrameConn, and only abort() leaves
          // the fd owned (close() racing abort() could shutdown() a
          // recycled fd).  The fd itself is released when the session is
          // reaped.
          if (!options_.quiet) {
            std::fprintf(stderr,
                         "sweep_workerd: dropping connection after %zu "
                         "batches (--fail-after)\n",
                         batches_served);
          }
          conn.abort();
          return false;
        }
        if (options_.delay_ms != 0) {
          // Deterministic straggler: hold the batch, as a busy or
          // overloaded host would, so steal tests and CI can rely on
          // this worker losing its tail.
          std::this_thread::sleep_for(
              std::chrono::milliseconds(options_.delay_ms));
        }
        wire::Reader r(frame.payload);
        const CellBatch batch = CellBatch::decode(r);
        r.expect_done();
        ResultBatch response;
        response.entries.reserve(batch.cells.size());
        const bool use_cache = cache_ != nullptr && !session_no_cache;
        for (const BatchCell& cell : batch.cells) {
          CellOutcome outcome;
          if (use_cache && cell.has_plan &&
              cache_->lookup(cell.scenario, cell.plan, &outcome.result)) {
            // A hit is the exact bytes an evaluation would produce (the
            // scenario carries the per-cell seed), so the answer is
            // bitwise identical - only faster.
            ++cells_cached;
          } else {
            outcome = evaluate_batch_cell(cell);
            ++cells_evaluated;
            if (use_cache && cell.has_plan && outcome.ok()) {
              cache_->insert(cell.scenario, cell.plan, outcome.result);
            }
          }
          response.entries.push_back({cell.index, std::move(outcome)});
        }
        wire::Writer w;
        response.encode(w);
        if (!conn.send(kFrameResultBatch, w.data())) {
          return true;  // coordinator went away mid-answer
        }
        ++batches_served;
      } else {
        send_error(conn, "worker: unexpected frame type " +
                             std::to_string(frame.type));
        return true;
      }
    } catch (const wire::Error& e) {
      send_error(conn,
                 std::string("worker: malformed payload: ") + e.what());
      return true;
    }
  }
}

}  // namespace net
}  // namespace rbx

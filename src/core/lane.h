// Lanes: where a sweep's cells physically run, behind one dispatch loop.
//
// DispatchCore (core/dispatch.h) schedules cells without caring whether a
// worker is a thread, a forked process or a TCP daemon on another host.
// A Lane supplies the workers of one kind, and every worker speaks the
// same framed protocol over a stream fd - the kFrameCellBatch /
// kFrameResultBatch currency of core/executor.h - so the coordinator can
// poll them all in one event loop:
//
//   ThreadLane   worker threads inside this process, one socketpair each;
//                the thread runs the same serve loop a forked child does,
//                evaluating cells through the sweep's cell_fn closure;
//   ForkLane     forked worker processes (process isolation: an aborting
//                cell cannot take the sweep down), respawned on crash so
//                one poisoned cell costs a retry, not a worker;
//   TcpLane      remote sweep_workerd daemons (net/cluster.h) - cells
//                carry EvalPlans, sweeps open with a versioned Hello
//                handshake, and a lost endpoint is re-admitted mid-sweep
//                once it reconnects and re-handshakes;
//   FleetLane    remote daemons resolved from a fleet registry at sweep
//                start (fleet/lane.h) - the same protocol as TcpLane, with
//                a signed lease in the Hello, and a worker lost mid-sweep
//                is backfilled by any other registry member.
//
// The caller owns its lanes and hands DispatchCore raw pointers to them.
//
// The handshake frames (Hello / HelloAck / Error) live here rather than
// in net/ because the shared dispatch loop validates acks itself; they
// are pure wire codecs with no socket dependency, and net/frame.h
// re-exports them under rbx::net for the worker daemon and its tests.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/eval_context.h"
#include "core/executor.h"
#include "support/wire.h"

namespace rbx {

// --- cluster control frames ----------------------------------------------
// (the data frames kFrameCellBatch/kFrameResultBatch are 1..2, in
// core/executor.h)

inline constexpr std::uint16_t kFrameHello = 16;
inline constexpr std::uint16_t kFrameHelloAck = 17;
inline constexpr std::uint16_t kFrameError = 18;
// Authentication exchange inside the handshake (fleet/auth.h): a keyed
// worker answers an auth-flagged Hello with a challenge nonce; the
// coordinator proves key possession with an HMAC response before the ack.
inline constexpr std::uint16_t kFrameAuthChallenge = 19;
inline constexpr std::uint16_t kFrameAuthResponse = 20;

// Version of the cluster conversation itself (handshake, batching rules).
// Bump on incompatible protocol changes; both sides refuse a mismatch.
// v2 added the flags word to Hello; v3 the auth/lease fields.
inline constexpr std::uint32_t kProtocolVersion = 3;

// Hello.flags bits.
inline constexpr std::uint32_t kHelloFlagNoCache = 1;  // bypass the worker's
                                                       // result cache for
                                                       // this session
inline constexpr std::uint32_t kHelloFlagAuth = 2;   // coordinator holds the
                                                     // pre-shared key; send a
                                                     // challenge before acking
inline constexpr std::uint32_t kHelloFlagLease = 4;  // lease_token/lease_sig
                                                     // carry a registry grant

struct Hello {
  std::uint32_t protocol = kProtocolVersion;
  std::uint16_t wire_version = wire::kVersion;
  std::uint64_t fingerprint = 0;  // grid_fingerprint of the sweep
  std::uint64_t total_cells = 0;
  std::uint32_t flags = 0;        // kHelloFlag* bits
  // Fleet lease (kHelloFlagLease): the registry-issued token and its HMAC
  // signature (fleet/auth.h), which the worker verifies against the
  // pre-shared key without talking to the registry.  Zero otherwise.
  std::uint64_t lease_token = 0;
  std::uint64_t lease_sig = 0;

  void encode(wire::Writer& w) const;
  static Hello decode(wire::Reader& r);
};

// --- FrameChannel ---------------------------------------------------------

// Framed traffic over one owned stream fd (a socketpair end or a TCP
// socket): buffered reassembly of frames that arrive split across reads,
// and poll-friendly non-greedy fills for the coordinator's multiplexed
// event loop.  net::FrameConn is this class adopting a net::Socket.
class FrameChannel {
 public:
  FrameChannel() = default;
  explicit FrameChannel(int fd) : fd_(fd) {}
  ~FrameChannel() { close(); }

  FrameChannel(FrameChannel&& other) noexcept;
  FrameChannel& operator=(FrameChannel&& other) noexcept;
  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;

  int fd() const { return fd_; }
  bool open() const { return fd_ >= 0; }
  void close();

  // Wakes a recv() blocked in another thread by shutting the fd down
  // (both directions); the blocked call sees EOF and returns false.  The
  // fd itself stays owned by this channel - safe to call while another
  // thread is inside recv(), unlike close().
  void abort();

  // Seals and writes one frame; false if the peer is gone.
  bool send(std::uint16_t type, const std::vector<std::byte>& payload);
  // Writes an already-sealed frame.
  bool send_frame(const std::vector<std::byte>& framed);

  // Reads once from the fd into the reassembly buffer (use after poll()
  // said the fd is readable).  False on EOF or error - the connection is
  // finished; frames already buffered can still be popped.
  bool fill();

  // Pops the next complete frame out of the buffer.  Throws wire::Error
  // on corrupt framing (bad magic / version / length).
  bool pop(wire::Frame* out);

  // Blocking receive: fill until one frame is complete.  False on EOF
  // before a full frame; throws wire::Error on corrupt framing.
  bool recv(wire::Frame* out);

 private:
  int fd_ = -1;
  std::vector<std::byte> buf_;
};

// --- worker/lane interfaces ----------------------------------------------

// One worker endpoint a DispatchCore can feed cell batches.  The worker is
// identified to the scheduler by its channel; a null/closed channel means
// the worker is lost (and may be revivable, below).
class LaneWorker {
 public:
  virtual ~LaneWorker() = default;

  virtual std::string describe() const = 0;

  // The worker's framed channel; closed = lost.
  virtual FrameChannel* channel() = 0;

  // Cells sent to this worker must carry EvalPlans (a remote daemon
  // cannot execute the sweep's local cell_fn closure).
  virtual bool needs_plan() const { return false; }

  // Whether every sweep must open with a Hello/HelloAck handshake on this
  // worker (remote daemons validate protocol/wire versions and the grid
  // fingerprint; in-process workers share the build and skip it).
  virtual bool needs_handshake() const { return false; }

  // Lets a worker amend the sweep's Hello before it is sent - an
  // authenticated worker sets kHelloFlagAuth, a fleet-leased worker adds
  // its lease token and signature.  Default: the Hello goes out as-is.
  virtual void prepare_hello(Hello& hello) const { (void)hello; }

  // Answers a kFrameAuthChallenge received during the handshake: the
  // HMAC over `challenge` under the worker's pre-shared key (fleet/auth.h).
  // Empty = this worker holds no key (the dispatch loop refuses the
  // handshake rather than answering with garbage).
  virtual std::string auth_response(const std::string& challenge) const {
    (void)challenge;
    return {};
  }

  // Drops the channel (and hangs up on whatever is behind it).
  virtual void retire() = 0;

  // --- revival: the backward-error-recovery loop applied to the pool ---
  //
  // A lost worker that can_revive() is retried on a backoff timer.
  // revive() re-establishes the channel: kReady means it is usable now
  // (a respawned fork worker), kPending means a non-blocking connect is
  // in flight - poll channel()->fd() for writability, then call
  // revive_finish() - and kFailed schedules the next backoff.
  enum class Revive { kFailed, kPending, kReady };
  virtual bool can_revive() const { return false; }
  virtual Revive revive() { return Revive::kFailed; }
  virtual bool revive_finish() { return false; }
  // Base delay before the first revival attempt (doubled per consecutive
  // failure by the scheduler).  0 = retry immediately.
  virtual int revive_delay_ms() const { return 0; }
};

// A source of workers of one kind.  start() is called once per
// DispatchCore::run to (re)create the lane's workers for the sweep;
// finish() reaps per-sweep workers (threads joined, children waited on) -
// a persistent lane (TCP) keeps its connections instead.
class Lane {
 public:
  virtual ~Lane() = default;

  virtual std::string name() const = 0;

  // Appends this lane's workers (owned by the lane, valid until finish())
  // to *out.  cell_count lets a lane clamp its worker count to the work
  // available; cell_fn is how thread/fork workers evaluate (captured for
  // the duration of the sweep - it must outlive finish()).
  //
  // Local workers evaluate under a StreamPool (core/eval_context.h) that
  // lends a Monte-Carlo cell threads for its sub-streams.  A ThreadLane
  // raises all of its threads whatever cell_count is, and they form one
  // pool: a cell gets its own thread plus every worker that has no frame
  // pending, so 1 cell on 4 threads runs 4-way.  A ForkLane clamps its
  // children to cell_count and gives each child a pool of (workers /
  // children raised - 1) helper threads.  Remote daemons (TCP/fleet)
  // size their own pools (sweep_workerd --eval-threads).
  virtual void start(std::size_t cell_count, const CellFn& cell_fn,
                     std::vector<LaneWorker*>* out) = 0;
  virtual void finish() = 0;
};

// --- ThreadLane -----------------------------------------------------------

// Worker threads inside the calling process.  Each worker owns one
// socketpair; the thread runs the same frame-serving loop as a forked
// child, so from the dispatch loop's point of view a thread is just a
// very reliable worker that can never crash independently.
class ThreadLane final : public Lane {
 public:
  // threads = 0 means std::thread::hardware_concurrency().
  explicit ThreadLane(std::size_t threads);
  ~ThreadLane() override;

  std::string name() const override { return "thread"; }
  std::size_t threads() const { return threads_; }

  void start(std::size_t cell_count, const CellFn& cell_fn,
             std::vector<LaneWorker*>* out) override;
  void finish() override;

 private:
  struct Worker;

  std::size_t threads_;
  // The sweep's stream pool; its members are the worker threads.
  // Created by start(), destroyed by finish() after the joins.
  std::unique_ptr<StreamPool> pool_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

// --- ForkLane -------------------------------------------------------------

// Forked worker processes fed cell batches over socketpairs.  A child
// that crashes (or is killed by a poisoned cell) is detected as EOF with
// work outstanding: the dispatch loop rolls its cells back to the queue
// and the lane respawns a replacement child, so the pool holds its size
// for the rest of the sweep - a cell that kills two workers in a row is
// declared poisonous and becomes a per-cell error instead of cascading.
class ForkLane final : public Lane {
 public:
  // workers = 0 means std::thread::hardware_concurrency().
  explicit ForkLane(std::size_t workers);
  ~ForkLane() override;

  std::string name() const override { return "fork"; }
  std::size_t workers() const { return count_; }

  void start(std::size_t cell_count, const CellFn& cell_fn,
             std::vector<LaneWorker*>* out) override;
  void finish() override;

 private:
  struct Worker;

  // Forks a child serving `worker`'s socketpair; false if fork/socketpair
  // failed (the worker stays lost and is retried on the revive timer).
  bool spawn(Worker& worker);

  std::size_t count_;
  const CellFn* cell_fn_ = nullptr;  // valid between start() and finish()
  std::size_t child_threads_ = 1;  // per-child pool width, set by start()
  std::vector<std::unique_ptr<Worker>> workers_;
};

// Hardware-concurrency default shared by the lanes.
std::size_t default_parallelism();

}  // namespace rbx

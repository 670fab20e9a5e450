#include "core/lane.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/eval_context.h"
#include "support/io.h"

namespace rbx {

std::size_t default_parallelism() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// --- cluster control frames ------------------------------------------------

void Hello::encode(wire::Writer& w) const {
  w.u32(protocol);
  w.u16(wire_version);
  w.u64(fingerprint);
  w.u64(total_cells);
  w.u32(flags);
  w.u64(lease_token);
  w.u64(lease_sig);
}

Hello Hello::decode(wire::Reader& r) {
  Hello out;
  out.protocol = r.u32();
  out.wire_version = r.u16();
  out.fingerprint = r.u64();
  out.total_cells = r.u64();
  out.flags = r.u32();
  // The lease fields are v3 additions; decoding them only when the peer
  // claims v3 lets an older peer's Hello reach the version check and be
  // refused with the clear mismatch message, not a framing error.
  if (out.protocol >= 3) {
    out.lease_token = r.u64();
    out.lease_sig = r.u64();
  }
  return out;
}

// --- FrameChannel ------------------------------------------------------------

FrameChannel::FrameChannel(FrameChannel&& other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_)) {
  other.fd_ = -1;
}

FrameChannel& FrameChannel::operator=(FrameChannel&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buf_ = std::move(other.buf_);
    other.fd_ = -1;
  }
  return *this;
}

void FrameChannel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
}

void FrameChannel::abort() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

bool FrameChannel::send(std::uint16_t type,
                        const std::vector<std::byte>& payload) {
  if (fd_ < 0) {
    return false;
  }
  return io::send_all(fd_, wire::seal_frame(type, payload));
}

bool FrameChannel::send_frame(const std::vector<std::byte>& framed) {
  if (fd_ < 0) {
    return false;
  }
  return io::send_all(fd_, framed);
}

bool FrameChannel::fill() {
  if (fd_ < 0) {
    return false;
  }
  std::byte chunk[1 << 16];
  const ssize_t got = io::read_some(fd_, chunk, sizeof(chunk));
  if (got <= 0) {
    return false;
  }
  buf_.insert(buf_.end(), chunk, chunk + got);
  return true;
}

bool FrameChannel::pop(wire::Frame* out) {
  std::size_t consumed = 0;
  if (!wire::parse_frame(buf_.data(), buf_.size(), out, &consumed)) {
    return false;
  }
  buf_.erase(buf_.begin(),
             buf_.begin() + static_cast<std::ptrdiff_t>(consumed));
  return true;
}

bool FrameChannel::recv(wire::Frame* out) {
  for (;;) {
    if (pop(out)) {
      return true;
    }
    if (!fill()) {
      return false;
    }
  }
}

// --- the worker-side serve loop --------------------------------------------

namespace {

// Serves kFrameCellBatch requests on `ch` until the peer hangs up: decode
// the batch, evaluate every cell through cell_fn, answer with one
// kFrameResultBatch.  Exactly this loop runs inside a ThreadLane worker
// thread and inside a ForkLane child process - from the dispatch loop's
// point of view the two are indistinguishable.  `pool` is installed as
// the worker's ambient EvalContext, so every cell_fn invocation can hand
// its streams to the pool; between frames the loop waits on the channel
// and the pool's wake fd together and, when no frame is pending, runs a
// stream another worker's cell published.  Returns true on clean EOF,
// false on a corrupt or out-of-protocol request stream.
bool serve_cells(FrameChannel& ch, const CellFn& cell_fn, StreamPool& pool) {
  EvalContextScope scope(EvalContext{&pool});
  pollfd fds[2] = {{ch.fd(), POLLIN, 0}, {pool.wake_fd(), POLLIN, 0}};
  for (;;) {
    wire::Frame frame;
    bool have_frame = false;
    try {
      have_frame = ch.pop(&frame);
    } catch (const wire::Error&) {
      return false;
    }
    if (!have_frame) {
      if (io::poll_retry(fds, 2, -1) < 0) {
        return false;
      }
      if (fds[0].revents != 0) {
        if (!ch.fill()) {
          return true;  // coordinator closed the channel: done
        }
      } else if (fds[1].revents != 0) {
        pool.help();
      }
      continue;
    }
    if (frame.type != kFrameCellBatch) {
      return false;
    }
    ResultBatch response;
    try {
      wire::Reader r(frame.payload);
      const CellBatch batch = CellBatch::decode(r);
      r.expect_done();
      response.entries.reserve(batch.cells.size());
      for (const BatchCell& cell : batch.cells) {
        response.entries.push_back(
            {cell.index,
             evaluate_cell(cell_fn, cell.scenario,
                           static_cast<std::size_t>(cell.index))});
      }
    } catch (const wire::Error&) {
      return false;
    }
    if (!ch.send_frame(response.seal())) {
      return true;  // coordinator went away mid-answer
    }
  }
}

}  // namespace

// --- ThreadLane --------------------------------------------------------------

struct ThreadLane::Worker final : LaneWorker {
  explicit Worker(std::size_t id) : id_(id) {}

  std::string describe() const override {
    return "thread#" + std::to_string(id_);
  }
  FrameChannel* channel() override { return &channel_; }
  void retire() override { channel_.close(); }

  std::size_t id_;
  FrameChannel channel_;
  std::thread thread_;
};

ThreadLane::ThreadLane(std::size_t threads)
    : threads_(threads != 0 ? threads : default_parallelism()) {}

ThreadLane::~ThreadLane() { finish(); }

// Every thread is raised even for fewer cells than threads: a worker the
// dispatch loop never feeds still serves the pool, so a lone Monte-Carlo
// cell gets the whole lane for its streams.
void ThreadLane::start(std::size_t /*cell_count*/, const CellFn& cell_fn,
                       std::vector<LaneWorker*>* out) {
  finish();
  pool_ = std::make_unique<StreamPool>();
  StreamPool& pool = *pool_;
  for (std::size_t i = 0; i < threads_; ++i) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      finish();
      throw std::runtime_error("ThreadLane: socketpair() failed");
    }
    auto worker = std::make_unique<Worker>(i);
    worker->channel_ = FrameChannel(sv[0]);
    const int serve_fd = sv[1];
    worker->thread_ = std::thread([serve_fd, &cell_fn, &pool]() {
      FrameChannel ch(serve_fd);
      serve_cells(ch, cell_fn, pool);
    });
    out->push_back(worker.get());
    workers_.push_back(std::move(worker));
  }
}

void ThreadLane::finish() {
  for (auto& worker : workers_) {
    // Closing the coordinator end EOFs the serve loop; the thread exits.
    worker->channel_.close();
    if (worker->thread_.joinable()) {
      worker->thread_.join();
    }
  }
  workers_.clear();
  pool_.reset();  // no member is left to poll it
}

// --- ForkLane ----------------------------------------------------------------

namespace {

// Close every inherited fd but `keep` (and the standard streams) in a
// fresh fork child.  A child that kept a copy of another worker's
// socketpair - or of a TCP connection in a hybrid sweep - would stop that
// channel from ever reading EOF when the coordinator closes it.
void close_other_fds(int keep) {
  long cap = ::sysconf(_SC_OPEN_MAX);
  if (cap < 0 || cap > 4096) {
    cap = 4096;  // we open a handful of fds; anything higher is noise
  }
  for (int fd = 3; fd < static_cast<int>(cap); ++fd) {
    if (fd != keep) {
      ::close(fd);
    }
  }
}

}  // namespace

struct ForkLane::Worker final : LaneWorker {
  Worker(ForkLane* lane, std::size_t id) : lane_(lane), id_(id) {}

  std::string describe() const override {
    return "fork#" + std::to_string(id_);
  }
  FrameChannel* channel() override { return &channel_; }
  void retire() override { channel_.close(); }

  bool can_revive() const override { return true; }
  Revive revive() override {
    reap();
    return lane_->spawn(*this) ? Revive::kReady : Revive::kFailed;
  }
  int revive_delay_ms() const override { return 0; }  // respawn immediately

  void reap() {
    if (pid_ > 0) {
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

  ForkLane* lane_;
  std::size_t id_;
  pid_t pid_ = -1;
  FrameChannel channel_;
};

ForkLane::ForkLane(std::size_t workers)
    : count_(workers != 0 ? workers : default_parallelism()) {}

ForkLane::~ForkLane() { finish(); }

bool ForkLane::spawn(Worker& worker) {
  // A mid-sweep respawn forks while other lanes' threads are running, so
  // the child may only rely on facilities fork() re-initializes for the
  // child of a multithreaded parent: glibc releases the malloc arena and
  // stdio locks across fork, and everything else on the child's path to
  // its first cell (FrameChannel, the wire codecs, io::*) is plain
  // malloc + raw syscalls.  SweepRunner additionally orders the fork
  // lane before the thread lane so the *initial* spawns happen before
  // any lane thread exists.
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return false;
  }
  if (pid == 0) {
    close_other_fds(sv[1]);
    // The child's stream pool lives as long as the child; its helpers are
    // joined before _exit.  Nothing may unwind out of the child into the
    // parent's stack frames, so a pool that cannot start ends it too.
    bool clean = false;
    try {
      FrameChannel ch(sv[1]);
      StreamPool pool(child_threads_ - 1);
      clean = serve_cells(ch, *cell_fn_, pool);
    } catch (...) {
      // clean stays false: the child exits 1 and is respawned
    }
    ::_exit(clean ? 0 : 1);
  }
  ::close(sv[1]);
  worker.pid_ = pid;
  worker.channel_ = FrameChannel(sv[0]);
  return true;
}

void ForkLane::start(std::size_t cell_count, const CellFn& cell_fn,
                     std::vector<LaneWorker*>* out) {
  finish();
  cell_fn_ = &cell_fn;
  // Never more children than cells; the threads of the children not
  // raised go to the survivors' stream pools instead of idling.  Stored
  // on the lane (not a start() local) because mid-sweep revives re-enter
  // spawn() long after start() returned.
  const std::size_t count =
      std::min(count_, std::max<std::size_t>(cell_count, 1));
  child_threads_ = std::max<std::size_t>(count_ / count, 1);
  std::size_t spawned = 0;
  for (std::size_t i = 0; i < count; ++i) {
    auto worker = std::make_unique<Worker>(this, i);
    if (spawn(*worker)) {
      ++spawned;
    }
    // A failed spawn leaves the worker lost; the dispatch loop retries it
    // on the revive timer.
    out->push_back(worker.get());
    workers_.push_back(std::move(worker));
  }
  if (spawned == 0) {
    finish();
    throw std::runtime_error("ForkLane: fork() failed for every worker");
  }
}

void ForkLane::finish() {
  for (auto& worker : workers_) {
    worker->channel_.close();  // EOF: the child's serve loop exits
    worker->reap();
  }
  workers_.clear();
  cell_fn_ = nullptr;
}

}  // namespace rbx

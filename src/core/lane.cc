#include "core/lane.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <mutex>
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

FrameChannel::FrameChannel(FrameChannel&& other) noexcept {
  *this = std::move(other);
}

FrameChannel& FrameChannel::operator=(FrameChannel&& other) noexcept {
  if (this != &other) {
    close();  // then trade this empty state for other's
    std::swap(fd_, other.fd_);
    buf_.swap(other.buf_);
    std::swap(head_, other.head_);
    std::swap(tail_, other.tail_);
  }
  return *this;
}

void FrameChannel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
  head_ = tail_ = 0;
}

void FrameChannel::abort() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

bool FrameChannel::send(std::uint16_t type,
                        const std::vector<std::byte>& payload) {
  return send_frame(wire::seal_frame(type, payload));
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
  // Compact once per read, not once per popped frame, and read straight
  // into the buffer.
  if (head_ > 0) {
    std::copy(buf_.data() + head_, buf_.data() + tail_, buf_.data());
    tail_ -= std::exchange(head_, 0);
  }
  buf_.resize(std::max(buf_.size(), tail_ + (1 << 16)));
  const ssize_t got =
      io::read_some(fd_, buf_.data() + tail_, buf_.size() - tail_);
  if (got <= 0) {
    return false;
  }
  tail_ += static_cast<std::size_t>(got);
  return true;
}

bool FrameChannel::pop(wire::Frame* out) {
  std::size_t consumed = 0;
  if (!wire::parse_frame(buf_.data() + head_, tail_ - head_, out,
                         &consumed)) {
    return false;
  }
  head_ += consumed;
  return true;
}

bool FrameChannel::recv(wire::Frame* out) {
  while (!pop(out)) {
    if (!fill()) {
      return false;
    }
  }
  return true;
}

// --- FramedWorker ----------------------------------------------------------

bool FramedWorker::submit(const std::vector<Scenario>& cells,
                          const std::vector<std::size_t>& indices,
                          const PlanFn& plan_fn) {
  CellBatch batch;
  batch.cells.reserve(indices.size());
  const bool with_plan = remote();
  for (const std::size_t index : indices) {
    batch.cells.push_back(
        BatchCell{index, cells[index], with_plan,
                  with_plan ? plan_fn(cells[index], index) : EvalPlan{}});
  }
  return channel_.send_frame(batch.seal());
}

LaneWorker::Collect FramedWorker::collect(ResultBatch* out,
                                          std::string* why) {
  try {
    wire::Frame frame;
    if (!channel_.pop(&frame)) {
      return Collect::kNone;
    }
    wire::Reader r(frame.payload);
    if (frame.type == kFrameResultBatch) {
      *out = ResultBatch::decode(r);
      r.expect_done();
      return Collect::kBatch;
    }
    *why = frame.type == kFrameError
               ? "worker error: " + r.str()
               : "unexpected frame type " + std::to_string(frame.type);
  } catch (const wire::Error& e) {
    *why = std::string("malformed results: ") + e.what();
  }
  return Collect::kLost;
}

// --- the fork child's serve loop -------------------------------------------

namespace {

// Serves kFrameCellBatch requests on `ch` until the peer hangs up: decode
// the batch, evaluate every cell through cell_fn, answer with one
// kFrameResultBatch.  `pool` is the child's own: its helper threads run
// the streams of the cell being evaluated, and between cells it has no
// work.  Returns true on clean EOF, false on a corrupt or out-of-protocol
// request stream.
bool serve_cells(FrameChannel& ch, const CellFn& cell_fn, StreamPool& pool) {
  EvalContextScope scope(EvalContext{&pool});
  try {
    wire::Frame frame;
    while (ch.recv(&frame)) {
      if (frame.type != kFrameCellBatch) {
        return false;
      }
      wire::Reader r(frame.payload);
      const CellBatch batch = CellBatch::decode(r);
      r.expect_done();
      ResultBatch response;
      response.entries.reserve(batch.cells.size());
      for (const BatchCell& cell : batch.cells) {
        response.entries.push_back(
            {cell.index,
             evaluate_cell(cell_fn, cell.scenario,
                           static_cast<std::size_t>(cell.index))});
      }
      if (!ch.send_frame(response.seal())) {
        return true;  // coordinator went away mid-answer
      }
    }
    return true;  // coordinator closed the channel: done
  } catch (const wire::Error&) {
    return false;
  }
}

}  // namespace

// --- ThreadLane --------------------------------------------------------------

// An inbox and an outbox under one mutex, each with a doorbell eventfd:
// the thread waits on the inbox bell and the pool's wake fd, the dispatch
// loop polls the outbox bell.
struct ThreadLane::Worker final : LaneWorker {
  explicit Worker(std::size_t id) : id_(id) {}
  ~Worker() override {
    stop_ = true;
    io::raise_event(inbox_fd_);
    if (thread_.joinable()) {
      thread_.join();
    }
    ::close(inbox_fd_);
    ::close(outbox_fd_);
  }

  std::string describe() const override {
    return "thread#" + std::to_string(id_);
  }
  int fd() const override { return retired_ ? -1 : outbox_fd_; }
  void retire() override { retired_ = true; }

  bool submit(const std::vector<Scenario>& cells,
              const std::vector<std::size_t>& indices,
              const PlanFn& /*plan_fn*/) override {
    std::lock_guard<std::mutex> lock(mutex_);
    cells_ = &cells;
    inbox_ = indices;
    io::raise_event(inbox_fd_);
    return !lost_;
  }
  // The bell is raised exactly while an answer (or a loss) waits: both
  // change under the mutex.
  Collect collect(ResultBatch* out, std::string* why) override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (lost_) {
      *why = "poll() failed";
      return Collect::kLost;
    }
    io::drain_event(outbox_fd_);
    *out = std::exchange(outbox_, ResultBatch{});
    return out->entries.empty() ? Collect::kNone : Collect::kBatch;
  }

  // The thread's loop.  stop_ (set by the destructor) cuts a batch short
  // between cells; nobody reads that batch's answer any more.  A failed
  // poll() ends it as a lost worker, whose cells re-queue elsewhere.
  void serve(const CellFn& cell_fn, StreamPool& pool) {
    EvalContextScope scope(EvalContext{&pool});
    pollfd fds[2] = {{inbox_fd_, POLLIN, 0}, {pool.wake_fd(), POLLIN, 0}};
    while (!stop_) {
      if (io::poll_retry(fds, 2, -1) < 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        lost_ = true;
        io::raise_event(outbox_fd_);
        return;
      }
      if (fds[0].revents == 0) {
        pool.help();  // no batch, but another worker's cell has streams
        continue;
      }
      io::drain_event(inbox_fd_);
      std::unique_lock<std::mutex> lock(mutex_);
      const std::vector<std::size_t> indices = std::exchange(inbox_, {});
      const std::vector<Scenario>* cells = cells_;
      lock.unlock();
      ResultBatch done;
      done.entries.reserve(indices.size());
      for (const std::size_t index : indices) {
        if (stop_) {
          return;
        }
        done.entries.push_back(
            {index, evaluate_cell(cell_fn, (*cells)[index], index)});
      }
      lock.lock();
      outbox_ = std::move(done);
      io::raise_event(outbox_fd_);
    }
  }

  std::size_t id_;
  int inbox_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  int outbox_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  bool retired_ = false;  // dispatch thread only
  std::atomic<bool> stop_{false};
  std::mutex mutex_;  // guards cells_, inbox_, outbox_ and lost_
  const std::vector<Scenario>* cells_ = nullptr;
  std::vector<std::size_t> inbox_;
  ResultBatch outbox_;
  bool lost_ = false;  // serve() quit on a failed poll()
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
  for (std::size_t i = 0; i < threads_; ++i) {
    workers_.push_back(std::make_unique<Worker>(i));
    Worker& w = *workers_.back();
    if (w.inbox_fd_ < 0 || w.outbox_fd_ < 0) {
      finish();
      throw std::runtime_error("ThreadLane: eventfd() failed");
    }
    w.thread_ = std::thread(
        [&w, &cell_fn, pool = pool_.get()] { w.serve(cell_fn, *pool); });
    out->push_back(&w);
  }
}

void ThreadLane::finish() {
  workers_.clear();  // each worker stops and joins its thread
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

struct ForkLane::Worker final : FramedWorker {
  Worker(ForkLane* lane, std::size_t id) : lane_(lane), id_(id) {}

  std::string describe() const override {
    return "fork#" + std::to_string(id_);
  }

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

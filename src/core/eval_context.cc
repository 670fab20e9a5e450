#include "core/eval_context.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <utility>

#include "support/io.h"

namespace rbx {

namespace {

thread_local EvalContext g_eval_context;  // defaults to no pool

}  // namespace

const EvalContext& current_eval_context() { return g_eval_context; }

EvalContextScope::EvalContextScope(EvalContext ctx)
    : previous_(g_eval_context) {
  g_eval_context = ctx;
}

EvalContextScope::~EvalContextScope() { g_eval_context = previous_; }

// --- StreamPool ----------------------------------------------------------

// One run() call: lives on the caller's stack until its last task has
// finished, which run() waits for.
struct StreamPool::Job {
  const Task* task = nullptr;
  std::size_t count = 0;
  std::size_t next = 0;        // next unclaimed index
  std::size_t unfinished = 0;  // claimed or not, not yet finished
  std::vector<std::exception_ptr> errors;  // per task index
};

// The wake eventfd's counter is 1 while tasks are unclaimed and 0
// otherwise: both edges are taken under the pool mutex, so a member that
// finds nothing to claim always finds the fd drained and blocks.
StreamPool::StreamPool(std::size_t helpers)
    : wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (wake_fd_ < 0) {
    throw std::runtime_error("StreamPool: eventfd() failed");
  }
  try {
    helpers_.reserve(helpers);
    for (std::size_t i = 0; i < helpers; ++i) {
      helpers_.emplace_back([this] { helper_loop(); });
    }
  } catch (...) {
    stop();
    throw;
  }
}

StreamPool::~StreamPool() { stop(); }

void StreamPool::stop() {
  stopping_.store(true);
  io::raise_event(wake_fd_);
  for (std::thread& helper : helpers_) {
    helper.join();
  }
  helpers_.clear();
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
}

void StreamPool::run(std::size_t count, const Task& task) {
  if (count == 0) {
    return;
  }
  Job job;
  job.task = &task;
  job.count = count;
  job.next = 1;  // the caller takes task 0 before anyone can see the job
  job.unfinished = count;
  job.errors.resize(count);
  if (count > 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    open_jobs_.push_back(&job);
    if (unclaimed_ == 0) {
      io::raise_event(wake_fd_);
    }
    unclaimed_ += count - 1;
  }
  execute(job, 0);
  for (;;) {
    Job* claimed = nullptr;
    std::size_t index = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!claim_locked(&job, &claimed, &index)) {
        break;
      }
    }
    execute(job, index);
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    finished_.wait(lock, [&job] { return job.unfinished == 0; });
  }
  for (const std::exception_ptr& error : job.errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

bool StreamPool::help() {
  Job* job = nullptr;
  std::size_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!claim_locked(nullptr, &job, &index)) {
      return false;
    }
  }
  execute(*job, index);
  return true;
}

bool StreamPool::claim_locked(Job* only, Job** job_out,
                              std::size_t* index_out) {
  Job* job = only;
  if (job == nullptr) {
    if (open_jobs_.empty()) {
      return false;
    }
    job = open_jobs_.front();  // oldest job first
  }
  if (job->next >= job->count) {
    return false;
  }
  *job_out = job;
  *index_out = job->next++;
  if (job->next == job->count) {
    open_jobs_.erase(std::find(open_jobs_.begin(), open_jobs_.end(), job));
  }
  if (--unclaimed_ == 0) {
    io::drain_event(wake_fd_);
  }
  return true;
}

void StreamPool::execute(Job& job, std::size_t index) {
  std::exception_ptr error;
  try {
    (*job.task)(index);
  } catch (...) {
    error = std::current_exception();
  }
  // The owner may destroy `job` as soon as it sees unfinished == 0, which
  // it can only read under this lock: nothing touches `job` after it.  The
  // error moves into the job, so no reference is dropped after the unlock
  // - the owner may already be rethrowing (and freeing) that exception.
  std::lock_guard<std::mutex> lock(mutex_);
  job.errors[index] = std::move(error);
  if (--job.unfinished == 0) {
    finished_.notify_all();
  }
}

void StreamPool::helper_loop() {
  pollfd wake{wake_fd_, POLLIN, 0};
  while (!stopping_.load()) {
    if (!help()) {
      io::poll_retry(&wake, 1, -1);
    }
  }
}

void run_stream_tasks(std::size_t count, const StreamPool::Task& task) {
  if (StreamPool* pool = current_eval_context().pool) {
    pool->run(count, task);
    return;
  }
  for (std::size_t k = 0; k < count; ++k) {
    task(k);
  }
}

}  // namespace rbx

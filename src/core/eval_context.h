// Ambient per-thread evaluation context and the intra-cell StreamPool.
//
// Backends are stateless singletons (core/backend.h), so an execution
// resource like "which threads may this evaluation borrow" cannot live on
// the backend, and threading it through every evaluate() call would churn
// the EvalBackend interface for what is purely a runtime resource.
// Instead the serving layer installs an EvalContext on the worker thread
// before invoking the backend, and the backend reads it ambiently.
//
// The context carries a StreamPool: the set of threads a Monte-Carlo
// cell may hand its RNG sub-streams to.  How many threads a cell gets:
//
//   ThreadLane   the lane's own worker threads are the pool's members -
//                the cell's thread claims streams in index order and any
//                worker without a batch to evaluate claims the rest, so a
//                cell uses up to min(streams, idle workers + 1) threads
//                and no thread is ever created for it;
//   ForkLane     each child owns a pool of (budget - 1) helper threads,
//                budget = the lane's workers / the children raised;
//   daemon       each sweep_workerd session owns a pool of
//                (--eval-threads - 1) helper threads.
//
// The pool is a resource, never semantics: a backend must produce
// bitwise-identical results whoever runs its tasks (the Monte-Carlo
// backend partitions work by RNG sub-stream, not by thread; see
// core/monte_carlo_backend.cc).  The default context has no pool, so
// code that never installs a scope gets sequential evaluation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rbx {

// A work-conserving task pool shared by the threads of one lane worker
// set (or one fork child, or one daemon session).  Several callers may
// run() at once; their tasks are claimed by whichever member is idle.
class StreamPool {
 public:
  using Task = std::function<void(std::size_t)>;

  // `helpers` dedicated threads that live as long as the pool and only
  // claim tasks.  0 = the members are external threads that poll
  // wake_fd() next to their own work and call help() (ThreadLane).
  explicit StreamPool(std::size_t helpers = 0);
  ~StreamPool();  // stops and joins the helpers

  StreamPool(const StreamPool&) = delete;
  StreamPool& operator=(const StreamPool&) = delete;

  // Runs task(0) .. task(count - 1) and returns once all of them have
  // finished.  The calling thread claims tasks in index order, task 0
  // first; idle members claim the rest.  Every task runs even when an
  // earlier one throws; afterwards the exception of the lowest failing
  // index is rethrown, so the error does not depend on who ran what.
  void run(std::size_t count, const Task& task);

  // Claims and runs one unclaimed task of any running job; false when
  // none was left.
  bool help();

  // An eventfd that is readable exactly while some published task is
  // unclaimed (and forever once the pool is stopping).
  int wake_fd() const { return wake_fd_; }

 private:
  struct Job;

  // Claims the next task of `job` (or of any job when null); fills
  // *job_out/*index_out.  Caller holds mutex_.
  bool claim_locked(Job* job, Job** job_out, std::size_t* index_out);
  // Runs a claimed task and marks it finished.
  void execute(Job& job, std::size_t index);
  void helper_loop();
  // Stops and joins the helpers and closes the fd (destructor, and a
  // constructor that failed to start every helper).
  void stop();

  int wake_fd_ = -1;
  std::mutex mutex_;
  std::condition_variable finished_;  // a job's last task finished
  std::vector<Job*> open_jobs_;       // jobs with unclaimed tasks
  std::size_t unclaimed_ = 0;         // over all open jobs
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> helpers_;  // last: they use everything above
};

struct EvalContext {
  // Threads a cell evaluation may hand stream tasks to; null = run them
  // sequentially on the calling thread.  Not owned.
  StreamPool* pool = nullptr;
};

// The context installed on the calling thread (default-constructed if no
// EvalContextScope is active).
const EvalContext& current_eval_context();

// Runs task(0) .. task(count - 1) on the ambient pool, or in index order
// on the calling thread when there is none.  Either way the exception of
// the lowest failing index is the one that escapes.
void run_stream_tasks(std::size_t count, const StreamPool::Task& task);

// RAII installer: replaces the calling thread's context for the scope's
// lifetime and restores the previous one on destruction.  Scopes nest.
class EvalContextScope {
 public:
  explicit EvalContextScope(EvalContext ctx);
  ~EvalContextScope();

  EvalContextScope(const EvalContextScope&) = delete;
  EvalContextScope& operator=(const EvalContextScope&) = delete;

 private:
  EvalContext previous_;
};

}  // namespace rbx

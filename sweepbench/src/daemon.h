// Loopback sweep_workerd daemons for the benchmark's remote pass.
//
// Each daemon is started on an ephemeral port (--serve=0) with its own
// fresh --cache-dir; readiness is the daemon's "listening on port N"
// line, waited for with poll() on its stdout pipe (no sleeps).  There
// are kDaemons daemons with kDaemonEvalThreads evaluation threads each.
// The daemons are killed and reaped on every exit path: the pool's
// destructor, an atexit hook for std::exit paths inside the library, and
// PR_SET_PDEATHSIG for a benchmark process that dies without unwinding.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/socket.h"

namespace sweepbench {

// One "session done" summary line of a daemon.
struct SessionSummary {
  std::size_t cells = 0;
  std::size_t evaluated = 0;
  std::size_t cached = 0;
};

class DaemonPool {
 public:
  struct Options {
    std::string exe;        // the sweep_workerd binary
    std::string dir;        // existing directory for the cache dirs
  };

  // Starts every daemon and returns once all are listening, within
  // 20 s.  Throws std::runtime_error (with the daemons already stopped)
  // otherwise.
  explicit DaemonPool(const Options& options);
  ~DaemonPool();
  DaemonPool(const DaemonPool&) = delete;
  DaemonPool& operator=(const DaemonPool&) = delete;

  std::vector<rbx::net::Endpoint> endpoints() const;
  std::vector<pid_t> pids() const;
  // Total bytes of the files in every daemon's cache dir.
  std::uint64_t cache_bytes() const;

  // Waits until every daemon has reported `sessions` session summaries on
  // stderr and returns them, per daemon in report order.  Throws
  // std::runtime_error on timeout or when a daemon exits.
  std::vector<std::vector<SessionSummary>> wait_sessions(
      std::size_t sessions, int timeout_ms);

  // SIGKILL + reap every daemon; idempotent.
  void stop();

 private:
  struct Daemon {
    pid_t pid = -1;
    int out_fd = -1;  // stdout pipe (the listening line)
    int err_fd = -1;  // stderr pipe (session summaries)
    std::uint16_t port = 0;
    std::string cache_dir;
    std::string err_text;  // stderr read so far
    std::vector<SessionSummary> sessions;
  };
  void spawn(Daemon& d, const Options& options, std::size_t index);
  void wait_ready(Daemon& d, int timeout_ms);

  std::vector<Daemon> daemons_;
};

}  // namespace sweepbench

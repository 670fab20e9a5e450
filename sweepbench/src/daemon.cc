#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <stdexcept>

#include "workloads.h"

namespace sweepbench {

namespace {

constexpr int kReadyTimeoutMs = 20000;

// Daemons not yet reaped, for the atexit hook: the library reports
// infrastructure failures with std::exit, which skips stack unwinding and
// so every DaemonPool destructor.
std::mutex g_live_mutex;
std::vector<pid_t> g_live;

void kill_and_reap(pid_t pid) {
  kill(pid, SIGKILL);
  while (waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
  }
}

void reap_live_daemons() {
  std::lock_guard<std::mutex> lock(g_live_mutex);
  for (pid_t pid : g_live) {
    kill_and_reap(pid);
  }
  g_live.clear();
}

void track(pid_t pid) {
  static const bool registered = (std::atexit(reap_live_daemons), true);
  (void)registered;
  std::lock_guard<std::mutex> lock(g_live_mutex);
  g_live.push_back(pid);
}

void untrack(pid_t pid) {
  std::lock_guard<std::mutex> lock(g_live_mutex);
  g_live.erase(std::remove(g_live.begin(), g_live.end(), pid), g_live.end());
}

std::int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Appends whatever `fd` has ready to `text`; false on EOF or error.
bool drain(int fd, std::string& text) {
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) {
        return true;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

// Waits until `fd` is readable; false once `deadline_ms` passes.
bool wait_readable(int fd, std::int64_t deadline_ms) {
  for (;;) {
    const std::int64_t left = deadline_ms - steady_ms();
    if (left <= 0) {
      return false;
    }
    pollfd p{fd, POLLIN, 0};
    const int rc = poll(&p, 1, static_cast<int>(left));
    if (rc > 0) {
      return true;
    }
    if (rc < 0 && errno != EINTR) {
      return false;
    }
  }
}

}  // namespace

DaemonPool::DaemonPool(const Options& options) {
  daemons_.resize(kDaemons);
  try {
    for (std::size_t k = 0; k < daemons_.size(); ++k) {
      spawn(daemons_[k], options, k);
    }
    const std::int64_t deadline = steady_ms() + kReadyTimeoutMs;
    for (Daemon& d : daemons_) {
      wait_ready(d, static_cast<int>(std::max<std::int64_t>(
                        0, deadline - steady_ms())));
    }
  } catch (...) {
    stop();
    throw;
  }
}

DaemonPool::~DaemonPool() { stop(); }

void DaemonPool::spawn(Daemon& d, const Options& options, std::size_t index) {
  d.cache_dir = options.dir + "/cache-" + std::to_string(index);
  if (mkdir(d.cache_dir.c_str(), 0755) != 0) {
    throw std::runtime_error("cannot create " + d.cache_dir + ": " +
                             std::strerror(errno));
  }
  int out_pipe[2];
  int err_pipe[2];
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  if (pipe2(err_pipe, O_CLOEXEC) != 0) {
    close(out_pipe[0]);
    close(out_pipe[1]);
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  // Everything the child needs is built before fork: only async-signal-
  // safe calls run between fork and exec.
  const std::string serve = "--serve=0";
  const std::string threads =
      "--eval-threads=" + std::to_string(kDaemonEvalThreads);
  const std::string cache = "--cache-dir=" + d.cache_dir;
  std::vector<char*> argv = {const_cast<char*>(options.exe.c_str()),
                             const_cast<char*>(serve.c_str()),
                             const_cast<char*>(threads.c_str()),
                             const_cast<char*>(cache.c_str()), nullptr};
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    const int err = errno;
    for (int fd : {out_pipe[0], out_pipe[1], err_pipe[0], err_pipe[1]}) {
      close(fd);
    }
    throw std::runtime_error(std::string("fork: ") + std::strerror(err));
  }
  if (pid == 0) {
    // Die with the benchmark even if it is SIGKILLed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) {
      _exit(127);
    }
    dup2(out_pipe[1], STDOUT_FILENO);
    dup2(err_pipe[1], STDERR_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  track(pid);
  d.pid = pid;
  close(out_pipe[1]);
  close(err_pipe[1]);
  d.out_fd = out_pipe[0];
  d.err_fd = err_pipe[0];
  fcntl(d.out_fd, F_SETFL, O_NONBLOCK);
  fcntl(d.err_fd, F_SETFL, O_NONBLOCK);
}

void DaemonPool::wait_ready(Daemon& d, int timeout_ms) {
  static const char kListening[] = "listening on port ";
  const std::int64_t deadline = steady_ms() + timeout_ms;
  std::string text;
  for (;;) {
    const std::size_t at = text.find(kListening);
    if (at != std::string::npos &&
        text.find('\n', at) != std::string::npos) {
      d.port = static_cast<std::uint16_t>(
          std::stoul(text.substr(at + sizeof(kListening) - 1)));
      return;
    }
    if (!wait_readable(d.out_fd, deadline)) {
      throw std::runtime_error("sweep_workerd did not report its port in " +
                               std::to_string(timeout_ms) + " ms");
    }
    if (!drain(d.out_fd, text)) {
      drain(d.err_fd, d.err_text);
      throw std::runtime_error("sweep_workerd exited before listening: " +
                               d.err_text);
    }
  }
}

std::vector<rbx::net::Endpoint> DaemonPool::endpoints() const {
  std::vector<rbx::net::Endpoint> out;
  for (const Daemon& d : daemons_) {
    out.push_back(rbx::net::Endpoint{"127.0.0.1", d.port});
  }
  return out;
}

std::vector<pid_t> DaemonPool::pids() const {
  std::vector<pid_t> out;
  for (const Daemon& d : daemons_) {
    out.push_back(d.pid);
  }
  return out;
}

std::uint64_t DaemonPool::cache_bytes() const {
  std::uint64_t total = 0;
  for (const Daemon& d : daemons_) {
    for (const auto& entry :
         std::filesystem::directory_iterator(d.cache_dir)) {
      if (entry.is_regular_file()) {
        total += entry.file_size();
      }
    }
  }
  return total;
}

std::vector<std::vector<SessionSummary>> DaemonPool::wait_sessions(
    std::size_t sessions, int timeout_ms) {
  static const char kDone[] = "session done: ";
  const std::int64_t deadline = steady_ms() + timeout_ms;
  for (Daemon& d : daemons_) {
    for (;;) {
      // Parse every complete summary line not yet consumed.
      std::size_t line_start = 0;
      std::size_t nl;
      while ((nl = d.err_text.find('\n', line_start)) != std::string::npos) {
        const std::string line =
            d.err_text.substr(line_start, nl - line_start);
        line_start = nl + 1;
        const std::size_t at = line.find(kDone);
        if (at == std::string::npos) {
          continue;
        }
        SessionSummary s;
        if (std::sscanf(line.c_str() + at + sizeof(kDone) - 1,
                        "cells=%zu evaluated=%zu cached=%zu", &s.cells,
                        &s.evaluated, &s.cached) != 3) {
          throw std::runtime_error("unparsable daemon line: " + line);
        }
        d.sessions.push_back(s);
      }
      d.err_text.erase(0, line_start);
      if (d.sessions.size() >= sessions) {
        break;
      }
      if (!wait_readable(d.err_fd, deadline)) {
        throw std::runtime_error("timed out waiting for daemon sessions");
      }
      if (!drain(d.err_fd, d.err_text)) {
        throw std::runtime_error("sweep_workerd exited unexpectedly");
      }
    }
  }
  std::vector<std::vector<SessionSummary>> out;
  for (const Daemon& d : daemons_) {
    out.push_back(d.sessions);
  }
  return out;
}

void DaemonPool::stop() {
  for (Daemon& d : daemons_) {
    if (d.pid > 0) {
      kill_and_reap(d.pid);
      untrack(d.pid);
      d.pid = -1;
    }
    for (int* fd : {&d.out_fd, &d.err_fd}) {
      if (*fd >= 0) {
        close(*fd);
        *fd = -1;
      }
    }
  }
}

}  // namespace sweepbench

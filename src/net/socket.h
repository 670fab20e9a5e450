// TCP plumbing for the cluster transport: RAII sockets, endpoint parsing,
// listeners and connectors.
//
// Everything here is deliberately boring POSIX: blocking sockets, IPv4/
// IPv6 via getaddrinfo, EINTR handled by support/io.h.  The interesting
// protocol lives one layer up in net/frame.h (framed wire traffic) and
// net/cluster.h / net/worker.h (coordinator and worker roles).
//
// Errors are net::Error (a std::runtime_error): a refused connection, an
// unresolvable host or a failed bind are infrastructure failures the
// caller decides how to survive - the TCP lane skips dead endpoints,
// the worker daemon exits.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace rbx {
namespace net {

class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Owns one socket fd; move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();
  // Hands ownership of the fd to the caller (e.g. a core FrameChannel);
  // this Socket becomes invalid.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

// "host:port" as named on a --connect list.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;

  std::string to_string() const;
};

// Strict "host:port" parse: non-empty host, port a plain integer in
// 1..65535.  Returns false and sets *why on malformed input (the bench
// flag parser turns that into an exit-2 usage error).
bool parse_endpoint(const std::string& text, Endpoint* out,
                    std::string* why);

// Listening TCP socket.  Port 0 binds an ephemeral port; port() reports
// the actual one (tests use this to avoid collisions).  Binds all
// interfaces - workers are meant to be reachable from other hosts.
class Listener {
 public:
  explicit Listener(std::uint16_t port);

  std::uint16_t port() const { return port_; }
  // Blocks until a client connects; throws net::Error on failure (and
  // after abort(), which is how a stopping daemon reports "no more
  // clients" rather than a real infrastructure error).
  Socket accept_client();

  // Wakes a blocked accept_client() in another thread: shuts the
  // listening socket down and nudges it with a throwaway loopback
  // connect (shutdown alone only wakes accept on Linux).  The woken
  // accept either fails or returns the throwaway connection, so callers
  // must set their stop flag *before* abort() and re-check it after
  // every accept.  The WorkerServer stop path and the fail_after kill
  // hook use this to get the accept loop out of its blocking accept.
  void abort();

 private:
  Socket sock_;
  std::uint16_t port_ = 0;
};

// Completes a connect() that did not finish synchronously - interrupted
// by a signal (EINTR) or started non-blocking (EINPROGRESS).  POSIX
// continues establishing the connection asynchronously in both cases, so
// re-calling connect() is wrong (it reports EALREADY/EISCONN and a
// *successful* connect looks like a failure); instead this polls the fd
// for writability and reads SO_ERROR.  Returns true once the connection
// is established; on failure sets *err and returns false.  try_connect
// uses it on EINTR; exposed so tests can drive it through the
// EINPROGRESS path, which exercises the identical kernel state.
bool finish_connect(int fd, std::string* err);

// Blocking connect; throws net::Error if the endpoint cannot be resolved
// or reached.  `retries` extra attempts are spaced `retry_delay_ms` apart
// for connection-refused/unreachable errors - enough to ride out a worker
// daemon that is still starting up.
Socket connect_to(const Endpoint& endpoint, int retries = 0,
                  int retry_delay_ms = 200);

// Non-blocking connect for event loops (the re-admission timer in
// core/dispatch.cc must never block a live sweep on a dead host).  On
// immediate success returns a connected blocking socket with *in_progress
// = false.  If the connect is still establishing, returns the (still
// non-blocking) socket with *in_progress = true: poll its fd for
// writability, call finish_connect(), then set_blocking(fd, true).  On
// failure returns an invalid Socket and sets *err.
Socket start_connect(const Endpoint& endpoint, bool* in_progress,
                     std::string* err);

// Sets or clears O_NONBLOCK; false on fcntl failure.
bool set_blocking(int fd, bool blocking);

}  // namespace net
}  // namespace rbx

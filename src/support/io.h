// Low-level fd I/O helpers shared by the executor and net layers.
//
// Every process- or host-crossing path in the library (forked workers on
// socketpairs, the TCP cluster transport) needs the same three loops:
// write a whole buffer, read a chunk, and poll a set of fds - each
// retrying EINTR, and each turning "peer went away" into a value instead
// of a signal or an exception.  They used to be copied per call site in
// core/executor.cc; this header is the single implementation.
//
// Error conventions:
//  * send_all returns false when the peer is gone (any write error after
//    EINTR retries; SIGPIPE is suppressed with MSG_NOSIGNAL so a dead
//    peer never kills the caller);
//  * read_some returns the byte count, 0 on EOF, -1 on a non-EINTR error
//    (both mean "this connection is finished" to every caller);
//  * poll_retry returns poll()'s result, retrying EINTR only.
#pragma once

#include <poll.h>

#include <cstddef>
#include <vector>

#include <sys/types.h>

namespace rbx {
namespace io {

// Writes the whole buffer to a socket fd, retrying EINTR and short writes.
// Returns false if the peer is gone (the caller decides whether that is a
// crash or a clean shutdown).
bool send_all(int fd, const void* data, std::size_t size);
bool send_all(int fd, const std::vector<std::byte>& data);

// Same loop over write() for non-socket fds (journal and cache files in
// recov/ append through this).  Returns false on any non-EINTR error.
bool write_all(int fd, const void* data, std::size_t size);
bool write_all(int fd, const std::vector<std::byte>& data);

// One read() of up to `cap` bytes, retrying EINTR.  Returns the byte
// count, 0 on EOF, -1 on error.
ssize_t read_some(int fd, void* buf, std::size_t cap);

// poll() retrying EINTR; timeout_ms as in poll (-1 = block forever).
int poll_retry(pollfd* fds, std::size_t count, int timeout_ms);

// An eventfd used as a doorbell: raise_event adds 1 to its counter (the
// fd polls readable), drain_event reads it back to 0.  Open the fd with
// EFD_NONBLOCK so draining an unraised bell does not block.
void raise_event(int fd);
void drain_event(int fd);

}  // namespace io
}  // namespace rbx

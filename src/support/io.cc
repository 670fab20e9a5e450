#include "support/io.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>

namespace rbx {
namespace io {

bool send_all(int fd, const void* data, std::size_t size) {
  const std::byte* p = static_cast<const std::byte*>(data);
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, p + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool send_all(int fd, const std::vector<std::byte>& data) {
  return send_all(fd, data.data(), data.size());
}

bool write_all(int fd, const void* data, std::size_t size) {
  const std::byte* p = static_cast<const std::byte*>(data);
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, p + off, size - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_all(int fd, const std::vector<std::byte>& data) {
  return write_all(fd, data.data(), data.size());
}

ssize_t read_some(int fd, void* buf, std::size_t cap) {
  for (;;) {
    const ssize_t n = ::read(fd, buf, cap);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return n;
  }
}

int poll_retry(pollfd* fds, std::size_t count, int timeout_ms) {
  for (;;) {
    const int ready = ::poll(fds, static_cast<nfds_t>(count), timeout_ms);
    if (ready < 0 && errno == EINTR) {
      continue;
    }
    return ready;
  }
}

void raise_event(int fd) {
  const std::uint64_t one = 1;
  write_all(fd, &one, sizeof(one));
}

void drain_event(int fd) {
  std::uint64_t count = 0;
  read_some(fd, &count, sizeof(count));
}

}  // namespace io
}  // namespace rbx

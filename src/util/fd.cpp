#include "util/fd.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace tevot::util {

void UniqueFd::reset(int fd) {
  if (fd_ >= 0 && fd_ != fd) {
    // EINTR on close is unrecoverable by retry on Linux (the fd is
    // already gone); ignore it like everyone else.
    ::close(fd_);
  }
  fd_ = fd;
}

bool sendAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace tevot::util

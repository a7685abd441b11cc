// RAII ownership of a POSIX file descriptor.
//
// The serving layer juggles listener and per-connection sockets across
// threads; UniqueFd makes every descriptor have exactly one owner and
// close exactly once, on every exit path. Move-only, like
// std::unique_ptr for fds.
#pragma once

#include <string_view>

namespace tevot::util {

class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { reset(); }

  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) reset(other.release());
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  explicit operator bool() const { return valid(); }

  /// Gives up ownership without closing.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the held fd (if any) and takes ownership of `fd`.
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Writes all of `bytes` to socket `fd`, retrying on EINTR and short
/// writes. MSG_NOSIGNAL turns a dead peer into a false return instead
/// of SIGPIPE.
bool sendAll(int fd, std::string_view bytes);

}  // namespace tevot::util

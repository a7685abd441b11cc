#include "serve/client.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace tevot::serve {

util::Status LineClient::connectTo(int port, double recv_timeout_ms) {
  close();
  util::UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    return util::Status::ioError(std::string("socket: ") +
                                 std::strerror(errno));
  }
  if (recv_timeout_ms > 0.0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(recv_timeout_ms / 1000.0);
    tv.tv_usec = static_cast<suseconds_t>(
        (recv_timeout_ms - static_cast<double>(tv.tv_sec) * 1000.0) *
        1000.0);
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return util::Status::ioError("connect 127.0.0.1:" +
                                 std::to_string(port) + ": " +
                                 std::strerror(errno));
  }
  fd_ = std::move(fd);
  buffer_.clear();
  last_port_ = port;
  last_recv_timeout_ms_ = recv_timeout_ms;
  return util::Status::okStatus();
}

util::Status LineClient::reconnect() {
  if (last_port_ == 0) {
    return util::Status::invalidArgument(
        "reconnect: no prior successful connectTo()");
  }
  close();
  util::Status last = connectTo(last_port_, last_recv_timeout_ms_);
  double backoff_ms = kReconnectBackoffMs;
  for (int attempt = 1; attempt < kReconnectAttempts && !last.ok();
       ++attempt) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
    backoff_ms *= 2.0;
    last = connectTo(last_port_, last_recv_timeout_ms_);
  }
  if (last.ok()) return last;
  last.message += " (after " + std::to_string(kReconnectAttempts) +
                  " reconnect attempts)";
  return last;
}

bool LineClient::sendLine(const std::string& line) {
  return fd_.valid() && util::sendAll(fd_.get(), line + "\n");
}

std::optional<std::string> LineClient::readLine() {
  char chunk[1024];
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    if (!fd_.valid()) return std::nullopt;
    if (buffer_.size() > kMaxResponseLineBytes) {
      close();  // unterminated over-cap line: poisoned stream
      return std::nullopt;
    }
    const ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void LineClient::close() {
  fd_.reset();
  buffer_.clear();
}

}  // namespace tevot::serve

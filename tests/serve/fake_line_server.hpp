// Scripted loopback peer for the line-protocol client tests. It listens
// on an ephemeral port and runs one script per accepted connection, in
// order, on a background thread; each connection closes when its script
// returns, so a client's redial lands on the next script. The
// destructor waits for every script to run.
#pragma once

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/fd.hpp"

namespace tevot::serve_test {

class FakeLineServer {
 public:
  explicit FakeLineServer(std::vector<std::function<void(int fd)>> scripts) {
    listen_fd_ = util::UniqueFd(::socket(AF_INET, SOCK_STREAM, 0));
    EXPECT_TRUE(listen_fd_.valid());
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_.get(),
                     reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_.get(),
                            reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
    EXPECT_EQ(::listen(listen_fd_.get(), 4), 0);
    thread_ = std::thread([this, scripts = std::move(scripts)] {
      for (const auto& script : scripts) {
        util::UniqueFd conn(::accept(listen_fd_.get(), nullptr, nullptr));
        if (!conn.valid()) return;
        script(conn.get());
      }
    });
  }

  ~FakeLineServer() {
    if (thread_.joinable()) thread_.join();
  }

  FakeLineServer(const FakeLineServer&) = delete;
  FakeLineServer& operator=(const FakeLineServer&) = delete;

  int port() const { return port_; }

  static void sendAll(int fd, const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return;  // the client hung up
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads until a newline arrives or the peer closes.
  static std::string readLine(int fd) {
    std::string line;
    char c = 0;
    while (::recv(fd, &c, 1, 0) == 1 && c != '\n') line.push_back(c);
    return line;
  }

 private:
  util::UniqueFd listen_fd_;
  int port_ = 0;
  std::thread thread_;
};

}  // namespace tevot::serve_test

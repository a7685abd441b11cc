// serve::LineClient error-path tests against a scripted fake server:
// refused connections, mid-response disconnects, partial lines at
// EOF, and response lines over the kMaxResponseLineBytes cap.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <string>

#include "fake_line_server.hpp"
#include "serve/client.hpp"

namespace tevot::serve {
namespace {

using serve_test::FakeLineServer;

TEST(LineClientTest, ConnectRefusedIsTypedError) {
  // Bind-then-close to get a port that is very likely unoccupied.
  int dead_port = 0;
  {
    FakeLineServer probe({[](int) {}});
    dead_port = probe.port();
    LineClient poke;
    ASSERT_TRUE(poke.connectTo(dead_port).ok());  // unblock the dtor
  }
  LineClient client;
  const util::Status status = client.connectTo(dead_port);
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(status.message.empty());
  EXPECT_FALSE(client.connected());
  // An unconnected client fails sends instead of crashing.
  EXPECT_FALSE(client.sendLine("predict"));
}

TEST(LineClientTest, MidResponseDisconnectReturnsNullopt) {
  FakeLineServer server({[](int fd) {
    FakeLineServer::readLine(fd);
    FakeLineServer::sendAll(fd, "OK delay=0x1p+8 err=0\nOK del");
    // Close with the second response unterminated.
  }});
  LineClient client;
  ASSERT_TRUE(client.connectTo(server.port()).ok());
  ASSERT_TRUE(client.sendLine("predict int_add 0.9 25 300 1 2 3 4"));
  const std::optional<std::string> first = client.readLine();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "OK delay=0x1p+8 err=0");
  // The truncated tail is EOF, not a phantom line.
  EXPECT_FALSE(client.readLine().has_value());
}

TEST(LineClientTest, PartialLineThenEofIsNoLine) {
  FakeLineServer server({[](int fd) {
    FakeLineServer::sendAll(fd, "OK delay=0x1p+8 er");
  }});
  LineClient client;
  ASSERT_TRUE(client.connectTo(server.port()).ok());
  EXPECT_FALSE(client.readLine().has_value());
}

TEST(LineClientTest, ImmediateEofIsNoLine) {
  FakeLineServer server({[](int) {}});
  LineClient client;
  ASSERT_TRUE(client.connectTo(server.port()).ok());
  EXPECT_FALSE(client.readLine().has_value());
}

TEST(LineClientTest, OversizedResponseLineFailsAndCloses) {
  FakeLineServer server({[](int fd) {
    // Stream well past the cap without ever terminating the line.
    const std::string chunk(1 << 16, 'x');
    for (std::size_t sent = 0;
         sent < LineClient::kMaxResponseLineBytes + (1 << 17);
         sent += chunk.size()) {
      FakeLineServer::sendAll(fd, chunk);
    }
  }});
  LineClient client;
  ASSERT_TRUE(client.connectTo(server.port()).ok());
  EXPECT_FALSE(client.readLine().has_value());
  // Mid-line state is unrecoverable: the client closed the socket.
  EXPECT_FALSE(client.connected());
}

TEST(LineClientTest, CompleteLineAtCapBoundaryStillDelivered) {
  // A maximal under-cap line followed by buffered extra data must be
  // returned intact — the cap rejects unterminated streams, not large
  // complete lines.
  const std::string big(LineClient::kMaxResponseLineBytes - 1, 'y');
  FakeLineServer server({[&big](int fd) {
    FakeLineServer::sendAll(fd, big + "\nOK tail\n");
  }});
  LineClient client;
  ASSERT_TRUE(client.connectTo(server.port()).ok());
  const std::optional<std::string> first = client.readLine();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->size(), big.size());
  const std::optional<std::string> second = client.readLine();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, "OK tail");
}

TEST(LineClientTest, RecvTimeoutBoundsWedgedPeer) {
  FakeLineServer server({[](int fd) {
    // Wedge: never answer, hold the connection open until the client
    // side gives up and the read below sees EOF.
    char c = 0;
    while (::recv(fd, &c, 1, 0) == 1) {
    }
  }});
  LineClient client;
  ASSERT_TRUE(client.connectTo(server.port(), 100.0).ok());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.readLine().has_value());
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(waited_ms, 5000.0);  // bounded, not a hang
  client.close();
}

}  // namespace
}  // namespace tevot::serve

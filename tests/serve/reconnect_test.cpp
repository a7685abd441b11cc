// serve::LineClient::reconnect() tests against scripted fake servers:
// redial after a mid-stream drop (stale read buffer discarded), the
// fixed backoff schedule against a dead port, and the typed
// kInvalidArgument when there is no port to redial.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <string>

#include "fake_line_server.hpp"
#include "serve/client.hpp"
#include "util/status.hpp"

namespace tevot::serve {
namespace {

using serve_test::FakeLineServer;

TEST(ReconnectTest, WithoutPriorConnectIsInvalidArgument) {
  LineClient client;
  const util::Status status = client.reconnect();
  EXPECT_EQ(status.code, util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(client.connected());
}

TEST(ReconnectTest, RefusedPortExhaustsAttemptsWithTypedError) {
  // Connect once while the server lives (recording the redial port),
  // then let the server die so every redial is refused.
  LineClient client;
  {
    FakeLineServer live({[](int) {}});
    ASSERT_TRUE(client.connectTo(live.port()).ok());
  }  // listener closed: the port is dead now
  static_assert(LineClient::kReconnectAttempts == 5);
  static_assert(LineClient::kReconnectBackoffMs == 1.0);
  const auto start = std::chrono::steady_clock::now();
  const util::Status status = client.reconnect();
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  EXPECT_EQ(status.code, util::StatusCode::kIoError);
  EXPECT_NE(status.message.find("5 reconnect attempts"), std::string::npos)
      << status.message;
  EXPECT_FALSE(client.connected());
  // Five dials sleep 1 + 2 + 4 + 8 = 15 ms between them: never less,
  // and far below a runaway retry loop. The upper bound is generous
  // for loaded CI machines.
  EXPECT_GE(waited_ms, 15.0);
  EXPECT_LT(waited_ms, 5000.0);
}

TEST(ReconnectTest, MidStreamDropRedialsAndResends) {
  FakeLineServer server({
      // Connection 1: answer the first request, then cut the line
      // with the second response torn mid-bytes.
      [](int fd) {
        FakeLineServer::readLine(fd);
        FakeLineServer::sendAll(fd, "OK delay=0x1.9p+9 err=0\n");
        FakeLineServer::readLine(fd);
        FakeLineServer::sendAll(fd, "OK del");  // torn, then close
      },
      // Connection 2: the redial lands here; serve the resend cleanly.
      [](int fd) {
        FakeLineServer::readLine(fd);
        FakeLineServer::sendAll(fd, "OK delay=0x1.Ap+9 err=0\n");
      },
  });
  LineClient client;
  ASSERT_TRUE(client.connectTo(server.port()).ok());
  ASSERT_TRUE(client.sendLine("predict int_add 0.9 25 300 1 2 3 4"));
  const std::optional<std::string> first = client.readLine();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "OK delay=0x1.9p+9 err=0");

  ASSERT_TRUE(client.sendLine("predict int_add 0.9 25 300 5 6 7 8"));
  // The torn response is EOF, not a phantom line.
  EXPECT_FALSE(client.readLine().has_value());

  const util::Status status = client.reconnect();
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_TRUE(client.connected());

  // The newline protocol cannot resume a torn response: the caller
  // resends, and the buffered "OK del" fragment must NOT leak into
  // the fresh connection's first line.
  ASSERT_TRUE(client.sendLine("predict int_add 0.9 25 300 5 6 7 8"));
  const std::optional<std::string> retry = client.readLine();
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(*retry, "OK delay=0x1.Ap+9 err=0");
}

TEST(ReconnectTest, ReconnectPreservesRecvTimeout) {
  FakeLineServer server({
      [](int fd) { FakeLineServer::readLine(fd); },  // wedge then EOF
      [](int fd) {
        // Hold the redialed connection open without answering; the
        // re-armed SO_RCVTIMEO must bound the read below.
        char c = 0;
        while (::recv(fd, &c, 1, 0) == 1) {
        }
      },
  });
  LineClient client;
  ASSERT_TRUE(client.connectTo(server.port(), 100.0).ok());
  ASSERT_TRUE(client.sendLine("predict"));
  EXPECT_FALSE(client.readLine().has_value());  // conn 1 closed
  ASSERT_TRUE(client.reconnect().ok());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.readLine().has_value());
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  EXPECT_LT(waited_ms, 5000.0);  // timeout carried over, not a hang
  client.close();
}

}  // namespace
}  // namespace tevot::serve

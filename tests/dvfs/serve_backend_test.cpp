// ServeBackend wire behavior against scripted peers: OK batches
// return hexfloat-exact delays, a degraded line mid-batch closes the
// socket instead of blocking on an unknowable replicated tail (the
// one-line-vs-n-lines protocol asymmetry), and a disconnect is
// resent ServeBackend::kResends times over fresh dials before the
// window degrades to fallback.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <string>

#include "dvfs/backend.hpp"
#include "dvfs/stream.hpp"
#include "fake_line_server.hpp"

namespace tevot::dvfs {
namespace {

using serve_test::FakeLineServer;

WindowedStream oneWindowStream(std::size_t transitions) {
  StreamOptions options;
  options.cycles = transitions + 1;
  options.window = transitions;
  options.seed = 11;
  return WindowedStream::generate(options);
}

ServeBackend::Options backendOptions(int port) {
  ServeBackend::Options options;
  options.port = port;
  options.tclk_hint_ps = 1000.0;
  return options;
}

TEST(ServeBackendTest, OkBatchReturnsHexfloatExactDelays) {
  const WindowedStream stream = oneWindowStream(3);
  FakeLineServer server({[](int fd) {
    FakeLineServer::readLine(fd);  // one predictN for the window
    FakeLineServer::sendAll(fd,
                                  "OK delay=0x1.8p+7 err=0\n"
                                  "OK delay=0x1.9p+7 err=0\n"
                                  "OK delay=0x1.ap+7 err=1\n");
  }});
  ServeBackend backend("int_add", backendOptions(server.port()));
  const WindowPrediction pred =
      backend.predictWindow(stream, stream.windows()[0]);
  ASSERT_EQ(pred.outcome, WindowOutcome::kOk);
  ASSERT_EQ(pred.delays_ps.size(), 3u);
  EXPECT_DOUBLE_EQ(pred.delays_ps[0], 0x1.8p+7);
  EXPECT_DOUBLE_EQ(pred.delays_ps[1], 0x1.9p+7);
  EXPECT_DOUBLE_EQ(pred.delays_ps[2], 0x1.ap+7);
}

TEST(ServeBackendTest, DegradedLineMidBatchClosesInsteadOfBlocking) {
  // The server answers tuple 1 OK, then sheds. A batch-level shed
  // would replicate n lines, but a parse-path failure answers with
  // ONE line — the client cannot know which, so it must classify on
  // the first degraded line and close the socket rather than block
  // for a tail that may never come. This test sends exactly one SHED
  // line and nothing else: a draining client would deadlock here.
  const WindowedStream stream = oneWindowStream(4);
  FakeLineServer server({
      [](int fd) {
        FakeLineServer::readLine(fd);
        FakeLineServer::sendAll(fd,
                                      "OK delay=0x1.8p+7 err=0\n"
                                      "SHED connection limit\n");
        // Hold the connection open: if the backend tried to read the
        // two "missing" replicated lines it would block until the
        // recv below notices the client's close.
        char c = 0;
        while (::recv(fd, &c, 1, 0) == 1) {
        }
      },
  });
  ServeBackend backend("int_add", backendOptions(server.port()));
  const WindowPrediction pred =
      backend.predictWindow(stream, stream.windows()[0]);
  EXPECT_EQ(pred.outcome, WindowOutcome::kShed);
  EXPECT_TRUE(pred.delays_ps.empty());  // no partial windows
}

TEST(ServeBackendTest, ErrorLineCarriesTypedCode) {
  const WindowedStream stream = oneWindowStream(2);
  FakeLineServer server({[](int fd) {
    FakeLineServer::readLine(fd);
    FakeLineServer::sendAll(fd, "ERROR UNKNOWN_FU no model\n");
    char c = 0;
    while (::recv(fd, &c, 1, 0) == 1) {
    }
  }});
  ServeBackend backend("bogus_fu", backendOptions(server.port()));
  const WindowPrediction pred =
      backend.predictWindow(stream, stream.windows()[0]);
  EXPECT_EQ(pred.outcome, WindowOutcome::kError);
  EXPECT_NE(pred.detail.find("UNKNOWN_FU"), std::string::npos)
      << pred.detail;
}

TEST(ServeBackendTest, DisconnectBurnsResendBudgetThenFallsBack) {
  // Every connection dies before answering. The backend sends the
  // window once and resends it kResends = 2 times, each over a fresh
  // dial, then reports the disconnect.
  static_assert(ServeBackend::kResends == 2);
  const WindowedStream stream = oneWindowStream(2);
  std::atomic<int> requests{0};
  const auto hang_up = [&requests](int fd) {
    if (!FakeLineServer::readLine(fd).empty()) ++requests;
  };
  {
    FakeLineServer server({hang_up, hang_up, hang_up});
    ServeBackend backend("int_add", backendOptions(server.port()));
    const WindowPrediction pred =
        backend.predictWindow(stream, stream.windows()[0]);
    EXPECT_EQ(pred.outcome, WindowOutcome::kDisconnect);
    EXPECT_NE(pred.detail.find("resend budget exhausted"),
              std::string::npos)
        << pred.detail;
  }  // joins the server: every script has run
  EXPECT_EQ(requests.load(), 1 + ServeBackend::kResends);
}

TEST(ServeBackendTest, RecoversOnRedialAfterMidStreamDrop) {
  // Window 1 is served, the connection dies, window 2 redials and is
  // served on the next accept — the degradation is invisible to the
  // controller (both windows come back kOk).
  const WindowedStream stream = oneWindowStream(2);
  FakeLineServer server({
      [](int fd) {
        FakeLineServer::readLine(fd);
        FakeLineServer::sendAll(fd,
                                      "OK delay=0x1p+7 err=0\n"
                                      "OK delay=0x1p+7 err=0\n");
        // close: next request from this client hits EOF
      },
      [](int fd) {
        FakeLineServer::readLine(fd);
        FakeLineServer::sendAll(fd,
                                      "OK delay=0x1.2p+7 err=0\n"
                                      "OK delay=0x1.2p+7 err=0\n");
      },
  });
  ServeBackend backend("int_add", backendOptions(server.port()));
  const WindowPrediction first =
      backend.predictWindow(stream, stream.windows()[0]);
  ASSERT_EQ(first.outcome, WindowOutcome::kOk);
  const WindowPrediction second =
      backend.predictWindow(stream, stream.windows()[0]);
  ASSERT_EQ(second.outcome, WindowOutcome::kOk);
  EXPECT_DOUBLE_EQ(second.delays_ps[0], 0x1.2p+7);
}

TEST(ServeBackendTest, ServerNeverUpIsDisconnectNotCrash) {
  int dead_port = 0;
  {
    FakeLineServer probe({[](int) {}});
    dead_port = probe.port();
    // Connect once so the probe's accept loop unblocks and the
    // listener closes with the scope.
    util::UniqueFd poke(::socket(AF_INET, SOCK_STREAM, 0));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(dead_port));
    ::connect(poke.get(), reinterpret_cast<const sockaddr*>(&addr),
              sizeof(addr));
  }
  const WindowedStream stream = oneWindowStream(2);
  ServeBackend backend("int_add", backendOptions(dead_port));
  const WindowPrediction pred =
      backend.predictWindow(stream, stream.windows()[0]);
  EXPECT_EQ(pred.outcome, WindowOutcome::kDisconnect);
  EXPECT_FALSE(pred.detail.empty());
}

}  // namespace
}  // namespace tevot::dvfs

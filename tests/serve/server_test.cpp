// In-process end-to-end server tests: correctness of accepted
// answers, the typed degradation surface (deadline/injected faults/
// abuse), the in-flight gauge, hot reload atomicity under load, and
// graceful drain.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve_test_util.hpp"
#include "util/fault_injection.hpp"

namespace tevot::serve {
namespace {

using serve_test::serveTestModels;

std::string predictLine(double v, double t, double tclk, std::uint32_t a,
                        std::uint32_t b, std::uint32_t prev_a,
                        std::uint32_t prev_b,
                        const char* deadline = nullptr) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "predict int_add %a %a %a %u %u %u %u%s%s",
                v, t, tclk, a, b, prev_a, prev_b,
                deadline != nullptr ? " " : "",
                deadline != nullptr ? deadline : "");
  return buf;
}

/// Sends one line and parses the (single) response line.
Response roundTrip(LineClient& client, const std::string& line) {
  EXPECT_TRUE(client.sendLine(line));
  const std::optional<std::string> raw = client.readLine();
  EXPECT_TRUE(raw.has_value()) << "no response for: " << line;
  Response response;
  EXPECT_TRUE(parseResponse(raw.value_or(""), &response))
      << "malformed: '" << raw.value_or("<eof>") << "'";
  return response;
}

ServerOptions baseOptions() {
  ServerOptions options;
  options.model_dir = serveTestModels().dir;
  // Local injector (disarmed by default) so an outer TEVOT_FAULTS
  // never leaks into these deterministic tests.
  static util::FaultInjector quiet;
  options.faults = &quiet;
  return options;
}

TEST(ServerTest, PredictMatchesOfflineModelBitExactly) {
  Server server(baseOptions());
  ASSERT_TRUE(server.start().ok());
  LineClient client;
  ASSERT_TRUE(client.connectTo(server.port()).ok());
  for (int i = 0; i < 20; ++i) {
    const double v = 0.8 + 0.01 * i, t = 5.0 * i, tclk = 100.0 + 17.0 * i;
    const std::uint32_t a = 0x1234u * (i + 1), b = 0x9876u + i;
    const Response response =
        roundTrip(client, predictLine(v, t, tclk, a, b, a / 2, b / 2));
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    const double expected = serveTestModels().model_a.predictDelay(
        a, b, a / 2, b / 2, {v, t});
    EXPECT_EQ(std::memcmp(&response.delay_ps, &expected, sizeof(double)),
              0);
    EXPECT_EQ(response.timing_error, expected > tclk);
  }
}

TEST(ServerTest, PredictAndOneTuplePredictNAnswerByteIdentically) {
  Server server(baseOptions());
  ASSERT_TRUE(server.start().ok());
  LineClient client;
  ASSERT_TRUE(client.connectTo(server.port()).ok());
  const auto raw_reply = [&](const std::string& line) {
    EXPECT_TRUE(client.sendLine(line));
    return client.readLine().value_or("<eof>");
  };
  for (int i = 0; i < 8; ++i) {
    const double v = 0.81 + 0.02 * i, t = 12.5 * i, tclk = 150.0 + 20.0 * i;
    const std::uint32_t a = 0x9e3779b9u * (i + 1), b = 0x7f4a7c15u ^ i;
    char operands[160];
    std::snprintf(operands, sizeof(operands), "int_add %a %a %a", v, t,
                  tclk);
    char tuple[64];
    std::snprintf(tuple, sizeof(tuple), "%u %u %u %u", a, b, b, a);
    const std::string single =
        raw_reply(std::string("predict ") + operands + " " + tuple);
    const std::string batch =
        raw_reply(std::string("predictN ") + operands + " 1 " + tuple);
    EXPECT_EQ(single.rfind("OK delay=", 0), 0u) << single;
    EXPECT_EQ(single, batch);
  }
}

TEST(ServerTest, ControlSurface) {
  Server server(baseOptions());
  ASSERT_TRUE(server.start().ok());
  LineClient client;
  ASSERT_TRUE(client.connectTo(server.port()).ok());

  const Response health = roundTrip(client, "health");
  ASSERT_EQ(health.status, ResponseStatus::kOk);
  EXPECT_NE(health.detail.find("status=serving"), std::string::npos);
  EXPECT_NE(health.detail.find("generation=1"), std::string::npos);

  const Response reload = roundTrip(client, "reload");
  ASSERT_EQ(reload.status, ResponseStatus::kOk);
  EXPECT_NE(reload.detail.find("generation=2"), std::string::npos);

  roundTrip(client, predictLine(0.9, 25, 300, 1, 2, 0, 0));
  const Response stats = roundTrip(client, "stats");
  ASSERT_EQ(stats.status, ResponseStatus::kOk);
  EXPECT_NE(stats.detail.find("ok=3"), std::string::npos) << stats.detail;
  EXPECT_NE(stats.detail.find("generation=2"), std::string::npos);
}

TEST(ServerTest, WireAbuseGetsTypedErrorsAndConnectionSurvives) {
  Server server(baseOptions());
  ASSERT_TRUE(server.start().ok());
  LineClient client;
  ASSERT_TRUE(client.connectTo(server.port()).ok());

  struct Case {
    std::string line;
    ErrorCode code;
  };
  const Case cases[] = {
      {"bogus", ErrorCode::kParse},
      {"predict int_add 0.9", ErrorCode::kParse},
      {"predict int_add nan 25 300 1 2 3 4", ErrorCode::kBadRequest},
      {"predict int_add 0.9 25 inf 1 2 3 4", ErrorCode::kBadRequest},
      {"predict int_add 0.9 25 300 1 2 3 4 -5", ErrorCode::kBadRequest},
      {std::string(kMaxLineBytes + 100, 'x'), ErrorCode::kOversized},
  };
  for (const Case& abuse : cases) {
    const Response response = roundTrip(client, abuse.line);
    EXPECT_EQ(response.status, ResponseStatus::kError);
    EXPECT_EQ(response.code, abuse.code)
        << abuse.line.substr(0, 60) << " -> " << response.detail;
  }
  // Unknown FU parses but is typed at the backend.
  const Response unknown =
      roundTrip(client, "predict no_such_fu 0.9 25 300 1 2 3 4");
  EXPECT_EQ(unknown.code, ErrorCode::kUnknownFu);
  // fp_mul is a known FU with no model file in the directory.
  const Response unavailable =
      roundTrip(client, "predict fp_mul 0.9 25 300 1 2 3 4");
  EXPECT_EQ(unavailable.code, ErrorCode::kModelUnavailable);
  // The same connection still serves valid requests.
  EXPECT_EQ(roundTrip(client, predictLine(0.9, 25, 300, 1, 2, 0, 0)).status,
            ResponseStatus::kOk);
}

TEST(ServerTest, EarlyDisconnectNeverKillsTheServer) {
  Server server(baseOptions());
  ASSERT_TRUE(server.start().ok());
  for (int i = 0; i < 5; ++i) {
    LineClient rude;
    ASSERT_TRUE(rude.connectTo(server.port()).ok());
    // Send a request and vanish without reading the response.
    EXPECT_TRUE(rude.sendLine(predictLine(0.9, 25, 300, 7, 9, 0, 0)));
    rude.close();
    // Half a request, then vanish mid-line.
    LineClient half;
    ASSERT_TRUE(half.connectTo(server.port()).ok());
    EXPECT_TRUE(half.sendLine("predict int_add 0.9"));
    half.close();
  }
  LineClient polite;
  ASSERT_TRUE(polite.connectTo(server.port()).ok());
  EXPECT_EQ(roundTrip(polite, predictLine(0.9, 25, 300, 7, 9, 0, 0)).status,
            ResponseStatus::kOk);
}

TEST(ServerTest, TinyDeadlineYieldsDeadlineResponse) {
  Server server(baseOptions());
  ASSERT_TRUE(server.start().ok());
  LineClient client;
  ASSERT_TRUE(client.connectTo(server.port()).ok());
  // 1e-12 ms end-to-end budget: any compute exceeds it.
  const Response response = roundTrip(
      client, predictLine(0.9, 25, 300, 1, 2, 0, 0, "1e-12"));
  EXPECT_EQ(response.status, ResponseStatus::kDeadline);
}

TEST(ServerTest, InjectedPredictFailuresTripNothing) {
  util::FaultInjector faults;
  util::FaultPlan plan;
  plan.seed = 11;
  plan.rate = 1.0;  // every predict throws
  plan.points = {"serve.predict"};
  plan.fail_attempts = 1000;
  faults.arm(plan);

  ServerOptions options = baseOptions();
  options.faults = &faults;
  Server server(options);
  ASSERT_TRUE(server.start().ok());
  LineClient client;
  ASSERT_TRUE(client.connectTo(server.port()).ok());
  const std::string line = predictLine(0.9, 25, 300, 1, 2, 0, 0);
  // Each failure is answered on its own; none of them keeps the next
  // predict from reaching the model.
  for (int i = 0; i < 10; ++i) {
    const Response response = roundTrip(client, line);
    EXPECT_EQ(response.status, ResponseStatus::kError) << i;
    EXPECT_EQ(response.code, ErrorCode::kFaultInjected)
        << i << ": " << response.detail;
  }
  faults.disarm();
  const Response response = roundTrip(client, line);
  ASSERT_EQ(response.status, ResponseStatus::kOk) << response.detail;
  const double expected =
      serveTestModels().model_a.predictDelay(1, 2, 0, 0, {0.9, 25});
  EXPECT_EQ(std::memcmp(&response.delay_ps, &expected, sizeof(double)), 0);
}

TEST(ServerTest, ParseFaultAnswersEveryTupleOfAParsedLine) {
  util::FaultInjector faults;
  util::FaultPlan plan;
  plan.seed = 1;
  plan.rate = 1.0;  // every parsed line faults
  plan.points = {"serve.parse"};
  plan.fail_attempts = 1000;
  faults.arm(plan);

  ServerOptions options = baseOptions();
  options.faults = &faults;
  Server server(options);
  ASSERT_TRUE(server.start().ok());
  LineClient client;
  // A receive timeout turns a short answer into a failure, not a hang.
  ASSERT_TRUE(client.connectTo(server.port(), 5000.0).ok());
  const std::vector<BatchOperand> tuples = {
      {1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}, {13, 14, 15, 16}};
  ASSERT_TRUE(client.sendLine(
      formatBatchRequest("int_add", 0.9, 25.0, 300.0, tuples)));
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    const std::optional<std::string> raw = client.readLine();
    ASSERT_TRUE(raw.has_value()) << "line " << i << " of 4 never arrived";
    Response response;
    ASSERT_TRUE(parseResponse(*raw, &response)) << *raw;
    EXPECT_EQ(response.code, ErrorCode::kFaultInjected) << *raw;
  }
  // A control verb is one line; a line that does not parse never
  // reaches the fault and keeps its own error.
  EXPECT_EQ(roundTrip(client, "health").code, ErrorCode::kFaultInjected);
  EXPECT_EQ(roundTrip(client, "bogus verb").code, ErrorCode::kParse);

  const MetricsSnapshot stats = server.drainAndStop();
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.errors, 6u);
}

TEST(ServerTest, InFlightGaugeNeverLeaksAcrossOutcomes) {
  util::FaultInjector faults;
  ServerOptions options = baseOptions();
  options.max_connections = 4;
  options.faults = &faults;
  Server server(options);
  ASSERT_TRUE(server.start().ok());
  LineClient client;
  ASSERT_TRUE(client.connectTo(server.port()).ok());
  const std::string line = predictLine(0.9, 25, 300, 1, 2, 0, 0);
  const auto expectIdle = [&] {
    const MetricsSnapshot stats = server.stats();
    EXPECT_EQ(stats.in_flight, 0u);
    EXPECT_EQ(stats.max_connections, 4u);
  };
  const auto readResponse = [&] {
    Response response;
    EXPECT_TRUE(parseResponse(client.readLine().value_or(""), &response));
    return response;
  };
  const auto expectOutcome = [&](const std::string& request,
                                 ResponseStatus status, ErrorCode code) {
    ASSERT_TRUE(client.sendLine(request));
    const Response response = readResponse();
    EXPECT_EQ(response.status, status) << response.detail;
    EXPECT_EQ(response.code, code) << response.detail;
    expectIdle();
  };
  const auto arm = [&](const char* point) {
    util::FaultPlan plan;
    plan.rate = 1.0;
    plan.points = {point};
    plan.fail_attempts = 1000;
    plan.slow_ms = 500.0;
    faults.arm(plan);
  };

  expectOutcome(line, ResponseStatus::kOk, ErrorCode::kNone);
  expectOutcome(predictLine(0.9, 25, 300, 1, 2, 0, 0, "1e-12"),
                ResponseStatus::kDeadline, ErrorCode::kNone);
  expectOutcome("predict no_such_fu 0.9 25 300 1 2 3 4",
                ResponseStatus::kError, ErrorCode::kUnknownFu);
  // A predictN is one predict in flight, answered with n lines.
  ASSERT_TRUE(client.sendLine(
      "predictN int_add 0.9 25 300 3 1 2 3 4 5 6 7 8 9 10 11 12"));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(readResponse().status, ResponseStatus::kOk) << i;
  }
  expectIdle();
  arm("serve.predict");
  expectOutcome(line, ResponseStatus::kError, ErrorCode::kFaultInjected);

  // While a slowed predict computes, the gauge counts it.
  arm("serve.slow");
  ASSERT_TRUE(client.sendLine(line));
  bool counted = false;
  for (int i = 0; i < 400 && !counted; ++i) {
    counted = server.stats().in_flight == 1;
    if (!counted) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(counted);
  EXPECT_EQ(readResponse().status, ResponseStatus::kOk);
  expectIdle();

  faults.disarm();
  expectOutcome(line, ResponseStatus::kOk, ErrorCode::kNone);
  const MetricsSnapshot stats = server.stats();
  EXPECT_EQ(stats.requests,
            stats.ok + stats.shed + stats.deadline + stats.errors);
}

TEST(ServerTest, HotReloadUnderLoadIsAtomic) {
  const serve_test::ServeTestModels& models = serveTestModels();
  const serve_test::ScratchDir scratch("tevot_serve_hot_reload");
  const std::string& dir = scratch.path();
  models.model_a.save(dir + "/int_add.model");

  ServerOptions options = baseOptions();
  options.model_dir = dir;
  Server server(options);
  ASSERT_TRUE(server.start().ok());

  // Writer thread: alternately install model B / model A and reload.
  std::atomic<bool> done{false};
  std::thread swapper([&] {
    LineClient control;
    ASSERT_TRUE(control.connectTo(server.port()).ok());
    for (int swap = 0; swap < 8; ++swap) {
      const core::TevotModel& next =
          (swap % 2 == 0) ? models.model_b : models.model_a;
      next.save(dir + "/int_add.model");
      const Response response = roundTrip(control, "reload");
      EXPECT_EQ(response.status, ResponseStatus::kOk) << response.detail;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    done.store(true);
  });

  // Load thread (this one): every accepted answer must be bit-exactly
  // model A's or model B's prediction — never a mix, never a torn
  // model.
  LineClient client;
  ASSERT_TRUE(client.connectTo(server.port()).ok());
  int checked = 0;
  std::uint32_t i = 0;
  while (!done.load()) {
    ++i;
    const double v = 0.8 + 0.001 * (i % 200), t = (i * 7) % 100;
    const std::uint32_t a = i * 2654435761u, b = ~i;
    const Response response =
        roundTrip(client, predictLine(v, t, 300.0, a, b, b, a));
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    const double from_a = models.model_a.predictDelay(a, b, b, a, {v, t});
    const double from_b = models.model_b.predictDelay(a, b, b, a, {v, t});
    const bool matches_a =
        std::memcmp(&response.delay_ps, &from_a, sizeof(double)) == 0;
    const bool matches_b =
        std::memcmp(&response.delay_ps, &from_b, sizeof(double)) == 0;
    ASSERT_TRUE(matches_a || matches_b)
        << "answer from a torn/unknown model at request " << i;
    ++checked;
  }
  swapper.join();
  EXPECT_GT(checked, 0);
  EXPECT_GE(server.stats().reloads, 8u);
}

TEST(ServerTest, DrainAndStopIsGracefulAndIdempotent) {
  Server server(baseOptions());
  ASSERT_TRUE(server.start().ok());
  const int port = server.port();
  LineClient client;
  ASSERT_TRUE(client.connectTo(port).ok());
  EXPECT_EQ(roundTrip(client, predictLine(0.9, 25, 300, 1, 2, 0, 0)).status,
            ResponseStatus::kOk);

  const MetricsSnapshot final_stats = server.drainAndStop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(final_stats.requests,
            final_stats.ok + final_stats.shed + final_stats.deadline +
                final_stats.errors);
  // Idempotent: a second drain is a no-op returning the same counters.
  EXPECT_EQ(server.drainAndStop().requests, final_stats.requests);
  // The listener is gone.
  LineClient late;
  EXPECT_FALSE(late.connectTo(port).ok());
}

TEST(ServerTest, ExactlyOneResponsePerRequestUnderConcurrentLoad) {
  ServerOptions options = baseOptions();
  Server server(options);
  ASSERT_TRUE(server.start().ok());

  constexpr int kClients = 4;
  constexpr int kRequests = 40;
  std::atomic<int> responses{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LineClient client;
      ASSERT_TRUE(client.connectTo(server.port()).ok());
      for (int i = 0; i < kRequests; ++i) {
        const Response response = roundTrip(
            client, predictLine(0.9, 25.0 + c, 300.0, i, c, i, c));
        EXPECT_EQ(response.status, ResponseStatus::kOk);
        responses.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(responses.load(), kClients * kRequests);
  const MetricsSnapshot stats = server.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_EQ(stats.requests,
            stats.ok + stats.shed + stats.deadline + stats.errors);
  EXPECT_EQ(stats.latency_count, stats.ok);
  EXPECT_GT(stats.p50_ms, 0.0);
}

}  // namespace
}  // namespace tevot::serve

// The wire and metrics lines hold the delay answers a pipeline queries
// and the counters a router merges, so their readers must take exactly
// what the writers wrote. Three real lines from a running Server — a
// 64-tuple predictN request, an OK delay= answer and a stats line —
// are cut at every byte and have every byte replaced: each result is a
// typed rejection or a value that writes back the tokens it was read
// from.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"
#include "text_mutations.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace tevot::serve {
namespace {

struct RealLines {
  std::string request;  ///< predictN with 64 tuples and a deadline
  std::string ok;       ///< the first answer to it
  std::string stats;    ///< the stats line after it, tag removed
};

const RealLines& realLines() {
  static const RealLines lines = [] {
    ServerOptions options;
    options.model_dir = serve_test::serveTestModels().dir;
    static util::FaultInjector quiet;
    options.faults = &quiet;
    Server server(options);
    EXPECT_TRUE(server.start().ok());
    LineClient client;
    EXPECT_TRUE(client.connectTo(server.port()).ok());
    util::Rng rng(28);
    std::vector<BatchOperand> operands(64);
    for (BatchOperand& operand : operands) {
      operand = {rng.nextU32(), rng.nextU32(), rng.nextU32(), rng.nextU32()};
    }
    RealLines out;
    out.request = formatBatchRequest("int_add", 0.9, 50.0, 412.5, operands,
                                     1000.0);
    EXPECT_TRUE(client.sendLine(out.request));
    for (std::size_t i = 0; i < operands.size(); ++i) {
      const std::string answer = client.readLine().value_or("");
      if (i == 0) out.ok = answer;
    }
    EXPECT_TRUE(client.sendLine("stats"));
    out.stats = client.readLine().value_or("");
    const std::string tag = "OK stats ";
    EXPECT_TRUE(out.stats.starts_with(tag)) << out.stats;
    out.stats.erase(0, tag.size());
    server.drainAndStop();
    return out;
  }();
  return lines;
}

TEST(WireMutationTest, PredictNLineIsTypedErrorOrReadsBack) {
  const std::string& line = realLines().request;
  Request request;
  ASSERT_TRUE(parseRequest(line, &request).ok()) << line;
  ASSERT_EQ(request.batch.size(), 64u);
  const std::size_t accepted = test::expectTypedErrorOrReadBack(
      line, [](const std::string& input) -> std::optional<std::string> {
        Request parsed;
        const util::Status status = parseRequest(input, &parsed);
        if (!status.ok()) {
          EXPECT_TRUE(status.code == util::StatusCode::kParseError ||
                      status.code == util::StatusCode::kInvalidArgument)
              << status.message;
          return std::nullopt;
        }
        EXPECT_EQ(parsed.kind, RequestKind::kPredict);
        std::string written =
            formatBatchRequest(parsed.fu, parsed.voltage, parsed.temperature,
                               parsed.tclk_ps, parsed.batch,
                               parsed.deadline_ms);
        // A deadline cut down to "0" is the server default, which
        // formatBatchRequest leaves out.
        const bool has_deadline =
            test::tokensOf(input).size() == 7 + 4 * parsed.batch.size();
        if (has_deadline && parsed.deadline_ms == 0.0) written += " 0";
        return written;
      });
  EXPECT_GT(accepted, 0u);  // digit changes in an operand are valid
}

TEST(WireMutationTest, OkDelayLineIsTypedErrorOrReadsBack) {
  const std::string& line = realLines().ok;
  Response response;
  ASSERT_TRUE(parseResponse(line, &response)) << line;
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  ASSERT_TRUE(line.starts_with("OK delay=0x")) << line;
  const std::size_t accepted = test::expectTypedErrorOrReadBack(
      line, [](const std::string& input) -> std::optional<std::string> {
        Response parsed;
        if (!parseResponse(input, &parsed)) return std::nullopt;
        return parsed.serialize();
      });
  EXPECT_GT(accepted, 0u);  // hex digit changes are other delays
}

TEST(WireMutationTest, StatsLineIsTypedErrorOrReadsBack) {
  const std::string& line = realLines().stats;
  MetricsSnapshot snap;
  ASSERT_TRUE(parseMetricsLine(line, &snap)) << line;
  ASSERT_EQ(snap.toLine(), line);
  ASSERT_GT(snap.latency_count, 0u) << line;
  const std::size_t accepted = test::expectTypedErrorOrReadBack(
      line, [](const std::string& input) -> std::optional<std::string> {
        MetricsSnapshot parsed;
        if (!parseMetricsLine(input, &parsed)) return std::nullopt;
        return parsed.toLine();
      });
  EXPECT_GT(accepted, 0u);  // counter digit changes are other counts
}

}  // namespace
}  // namespace tevot::serve

#include "check/serve_oracle.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "check/property.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tevot/pipeline.hpp"
#include "util/fault_injection.hpp"

namespace tevot::check {

namespace {

/// SO_RCVTIMEO of every driver connection, so a short answer is a
/// reported violation instead of a hang.
constexpr double kReplyTimeoutMs = 10000.0;

struct DriveViolations {
  std::mutex mutex;
  std::vector<std::string> messages;

  void add(std::string message) {
    const std::lock_guard<std::mutex> lock(mutex);
    messages.push_back(std::move(message));
  }
};

/// Sends `line` and reads up to `lines` answer lines. A connection
/// that answers nothing (an injected accept fault) is redialed and the
/// idempotent request resent, at most `budget` times. Returns the lines
/// that arrived: fewer than `lines` when the answer was cut short.
std::vector<std::string> exchange(serve::LineClient& client,
                                  const std::string& line,
                                  std::size_t lines, int budget) {
  std::vector<std::string> replies;
  for (int attempt = 0; attempt <= budget && replies.empty(); ++attempt) {
    if (!client.connected() && !client.reconnect().ok()) break;
    if (client.sendLine(line)) {
      while (replies.size() < lines) {
        std::optional<std::string> reply = client.readLine();
        if (!reply.has_value()) break;
        replies.push_back(std::move(*reply));
      }
    }
    if (replies.size() < lines) client.close();  // EOF, timeout, cut
  }
  return replies;
}

struct GarbageCase {
  std::string line;
  const char* what;
};

std::vector<GarbageCase> garbageCases(const std::string& fu) {
  return {
      {"bogus request verb", "unknown verb"},
      {"predict", "missing operands"},
      {"predict " + fu + " 0.9", "truncated predict"},
      {"predict " + fu + " nan 25 100 1 2 3 4", "NaN voltage"},
      {"predict " + fu + " 0.9 inf 100 1 2 3 4", "inf temperature"},
      {"predict " + fu + " 0.9 25 0 1 2 3 4", "tclk_ps = 0"},
      {"predict " + fu + " 0.9 25 100 -1 2 3 4", "negative operand"},
      {"predict " + fu + " 0.9 25 100 99999999999 2 3 4",
       "operand over 32 bits"},
      {"predict no_such_fu 0.9 25 100 1 2 3 4 extra_token",
       "wrong arity"},
      {std::string(serve::kMaxLineBytes + 64, 'x'), "oversized line"},
  };
}

void clientRoutine(const core::TevotModel& reference, const std::string& fu,
                   int port, std::uint64_t seed, int client_index,
                   const ServeDriveOptions& options,
                   DriveViolations* violations) {
  util::Rng rng(seed ^ (0x9e3779b97f4a7c15ull *
                        static_cast<std::uint64_t>(client_index + 1)));
  const std::string who = "client " + std::to_string(client_index);
  serve::LineClient client;
  if (const util::Status dialed = client.connectTo(port, kReplyTimeoutMs);
      !dialed.ok()) {
    return violations->add(who + ": " + dialed.message);
  }
  const std::vector<GarbageCase> garbage = garbageCases(fu);
  for (int i = 0; i < options.requests_per_client; ++i) {
    const std::string tag = who + " request " + std::to_string(i);
    // Every tenth line is a control verb. Of the predicts, every third
    // is a predictN of 2-16 tuples, the rest a single predict (which
    // is a batch of one).
    std::string line;
    const GarbageCase* garbage_case = nullptr;
    std::vector<serve::BatchOperand> tuples;
    liberty::Corner corner;
    double tclk = 0.0;
    if (rng.nextDouble() < kGarbageFraction) {
      garbage_case = &garbage[static_cast<std::size_t>(rng.nextInRange(
          0, static_cast<std::int64_t>(garbage.size()) - 1))];
      line = garbage_case->line;
    } else if (i % 10 == 7) {
      const char* const verbs[] = {"health", "stats", "reload"};
      line = verbs[rng.nextInRange(0, 2)];
    } else {
      corner = {rng.nextDouble(0.80, 1.00), rng.nextDouble(0.0, 100.0)};
      tclk = rng.nextDouble(50.0, 2000.0);
      tuples.resize(
          i % 3 == 1 ? static_cast<std::size_t>(rng.nextInRange(2, 16)) : 1);
      for (serve::BatchOperand& tuple : tuples) {
        tuple = {rng.nextU32(), rng.nextU32(), rng.nextU32(),
                 rng.nextU32()};
      }
      line = tuples.size() == 1
                 ? serve::formatPredictRequest(fu, corner.voltage,
                                               corner.temperature, tclk,
                                               tuples[0])
                 : serve::formatBatchRequest(fu, corner.voltage,
                                             corner.temperature, tclk,
                                             tuples);
    }

    // A parsed predict is answered with one line per tuple, any other
    // line with one.
    const std::size_t expected = std::max<std::size_t>(tuples.size(), 1);
    const std::vector<std::string> raw =
        exchange(client, line, expected, options.reconnect_budget);
    if (raw.size() != expected) {
      violations->add(tag + (raw.empty()
                                 ? ": no response within the reconnect budget"
                                 : ": " + std::to_string(raw.size()) +
                                       " of " + std::to_string(expected) +
                                       " response lines"));
      continue;
    }
    std::vector<core::DelayQuery> queries;
    queries.reserve(tuples.size());
    for (const serve::BatchOperand& tuple : tuples) {
      queries.push_back({tuple.a, tuple.b, tuple.prev_a, tuple.prev_b, corner});
    }
    std::vector<double> offline(queries.size());
    reference.predictDelayBatch(queries, offline);
    for (std::size_t k = 0; k < raw.size(); ++k) {
      serve::Response response;
      if (!serve::parseResponse(raw[k], &response)) {
        violations->add(tag + ": malformed response line '" + raw[k] + "'");
        continue;
      }
      if (response.status != serve::ResponseStatus::kOk) continue;
      if (garbage_case != nullptr) {
        // Malformed input must never be ACCEPTED.
        violations->add(tag + " (" + garbage_case->what +
                        "): got OK for malformed input: '" + raw[k] + "'");
      }
      if (tuples.empty()) continue;  // a well-formed answer is the contract
      // ACCEPTED => bit-identical to the offline model.
      if (std::memcmp(&offline[k], &response.delay_ps, sizeof(double)) != 0) {
        char msg[160];
        std::snprintf(msg, sizeof(msg),
                      ": tuple %zu OK delay %a differs from offline %a", k,
                      response.delay_ps, offline[k]);
        violations->add(tag + msg);
      }
      if (response.timing_error != (offline[k] > tclk)) {
        violations->add(tag + ": err bit disagrees with delay > tclk");
      }
    }
  }
}

}  // namespace

void driveAndVerifyServer(const core::TevotModel& reference,
                          const std::string& fu, int port,
                          std::uint64_t seed,
                          const ServeDriveOptions& options) {
  DriveViolations violations;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(options.clients));
  for (int c = 0; c < options.clients; ++c) {
    clients.emplace_back([&, c] {
      clientRoutine(reference, fu, port, seed, c, options, &violations);
    });
  }
  for (std::thread& client : clients) client.join();
  if (!violations.messages.empty()) {
    std::string message =
        std::to_string(violations.messages.size()) +
        " serving-contract violation(s); first: " + violations.messages[0];
    expect(false, message);
  }
}

namespace {

/// Tiny int_add model trained once per process and saved as a model
/// directory for the in-process server; the in-memory copy is the
/// offline reference for the bit-identity check. The directory is
/// removed when the process exits.
struct OracleFixture {
  core::TevotModel model;
  std::string model_dir;

  OracleFixture(const OracleFixture&) = delete;
  OracleFixture& operator=(const OracleFixture&) = delete;
  OracleFixture() {
    core::FuContext context(circuits::FuKind::kIntAdd);
    util::Rng rng(20260805);
    std::vector<dta::DtaTrace> traces;
    for (const liberty::Corner corner :
         {liberty::Corner{0.85, 25.0}, liberty::Corner{1.00, 75.0}}) {
      traces.push_back(context.characterize(
          corner, dta::randomWorkloadFor(context.kind(), 120, rng)));
    }
    core::TevotConfig config;
    config.forest.n_trees = 4;  // tiny but real; speed over accuracy
    model = core::TevotModel(config);
    model.train(traces, rng);
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("tevot_serve_oracle_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    model_dir = dir.string();
    model.save(model_dir + "/int_add.model");
  }
  ~OracleFixture() {
    std::error_code ignored;
    std::filesystem::remove_all(model_dir, ignored);
  }
};

const OracleFixture& oracleFixture() {
  static const OracleFixture fixture;
  return fixture;
}

}  // namespace

OracleModel oracleModel() {
  const OracleFixture& fixture = oracleFixture();
  return {fixture.model, fixture.model_dir};
}

void checkServeResilience(std::uint64_t seed, util::Rng& rng) {
  (void)rng;  // all randomness is derived from `seed` by the driver
  const OracleFixture& fixture = oracleFixture();

  util::FaultInjector faults;
  {
    util::FaultPlan plan;
    plan.seed = seed;
    plan.rate = 0.1;
    plan.points = {"serve.accept", "serve.parse", "serve.predict",
                   "serve.reload"};
    plan.fail_attempts = 1;
    faults.arm(plan);
  }

  serve::ServerOptions options;
  options.model_dir = fixture.model_dir;
  options.faults = &faults;
  serve::Server server(options);
  const util::Status started = server.start();
  expect(started.ok(), "server failed to start: " + started.message);

  driveAndVerifyServer(fixture.model, "int_add", server.port(), seed);

  const serve::MetricsSnapshot final_stats = server.drainAndStop();
  // Exactly-once accounting: every request line ended in exactly one
  // categorized response.
  expect(final_stats.requests == final_stats.ok + final_stats.shed +
                                     final_stats.deadline +
                                     final_stats.errors,
         "response accounting mismatch: " + final_stats.toLine());
  expect(final_stats.requests > 0, "driver sent no requests");
}

}  // namespace tevot::check

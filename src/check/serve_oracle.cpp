#include "check/serve_oracle.hpp"

#include <chrono>
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

/// Hexfloat-prints the full request line so the server parses the
/// client's doubles bit-for-bit (the precondition of the OK
/// bit-identity check).
std::string predictLine(const std::string& fu, double v, double t,
                        double tclk_ps, std::uint32_t a, std::uint32_t b,
                        std::uint32_t prev_a, std::uint32_t prev_b) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "predict %s %a %a %a %u %u %u %u",
                fu.c_str(), v, t, tclk_ps, a, b, prev_a, prev_b);
  return buf;
}

struct DriveViolations {
  std::mutex mutex;
  std::vector<std::string> messages;

  void add(std::string message) {
    const std::lock_guard<std::mutex> lock(mutex);
    messages.push_back(std::move(message));
  }
};

/// One request over a possibly fault-dropped connection: reconnect
/// and resend until a full response line arrives or the budget is
/// exhausted (empty optional).
std::optional<std::string> sendWithRetry(serve::LineClient& client,
                                         int port, const std::string& line,
                                         int budget) {
  for (int attempt = 0; attempt <= budget; ++attempt) {
    if (!client.connected()) {
      bool connected = false;
      for (int c = 0; c < 100; ++c) {
        if (client.connectTo(port).ok()) {
          connected = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (!connected) return std::nullopt;
    }
    if (!client.sendLine(line)) {
      client.close();
      continue;
    }
    std::optional<std::string> response = client.readLine();
    if (response.has_value()) return response;
    client.close();  // EOF (e.g. injected accept fault) — retry
  }
  return std::nullopt;
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
  serve::LineClient client;
  const std::vector<GarbageCase> garbage = garbageCases(fu);
  for (int i = 0; i < options.requests_per_client; ++i) {
    const std::string tag = "client " + std::to_string(client_index) +
                            " request " + std::to_string(i);
    enum class Kind { kPredict, kGarbage, kControl } kind = Kind::kPredict;
    if (rng.nextDouble() < options.garbage_fraction) {
      kind = Kind::kGarbage;
    } else if (options.exercise_control && i % 10 == 7) {
      kind = Kind::kControl;
    }

    std::string line;
    const GarbageCase* garbage_case = nullptr;
    double v = 0.0, t = 0.0, tclk = 0.0;
    std::uint32_t a = 0, b = 0, prev_a = 0, prev_b = 0;
    switch (kind) {
      case Kind::kPredict: {
        v = rng.nextDouble(0.80, 1.00);
        t = rng.nextDouble(0.0, 100.0);
        tclk = rng.nextDouble(50.0, 2000.0);
        a = rng.nextU32();
        b = rng.nextU32();
        prev_a = rng.nextU32();
        prev_b = rng.nextU32();
        line = predictLine(fu, v, t, tclk, a, b, prev_a, prev_b);
        break;
      }
      case Kind::kGarbage:
        garbage_case = &garbage[static_cast<std::size_t>(
            rng.nextInRange(0, static_cast<std::int64_t>(garbage.size()) -
                                   1))];
        line = garbage_case->line;
        break;
      case Kind::kControl: {
        const int which = static_cast<int>(rng.nextInRange(0, 2));
        line = which == 0 ? "health" : which == 1 ? "stats" : "reload";
        break;
      }
    }

    const std::optional<std::string> raw =
        sendWithRetry(client, port, line, options.reconnect_budget);
    if (!raw.has_value()) {
      violations->add(tag + ": no response within the reconnect budget");
      continue;
    }
    serve::Response response;
    if (!serve::parseResponse(*raw, &response)) {
      violations->add(tag + ": malformed response line '" + *raw + "'");
      continue;
    }
    switch (kind) {
      case Kind::kGarbage:
        // Malformed input must never be ACCEPTED.
        if (response.status == serve::ResponseStatus::kOk) {
          violations->add(tag + " (" + garbage_case->what +
                          "): got OK for malformed input: '" + *raw + "'");
        }
        break;
      case Kind::kControl:
        break;  // well-formed is the whole contract here
      case Kind::kPredict: {
        if (response.status != serve::ResponseStatus::kOk) break;
        // ACCEPTED => bit-identical to the offline model.
        const double expected =
            reference.predictDelay(a, b, prev_a, prev_b, {v, t});
        if (std::memcmp(&expected, &response.delay_ps, sizeof(double)) !=
            0) {
          char msg[160];
          std::snprintf(msg, sizeof(msg),
                        ": OK delay %a differs from offline %a",
                        response.delay_ps, expected);
          violations->add(tag + msg);
        }
        if (response.timing_error != (expected > tclk)) {
          violations->add(tag + ": err bit disagrees with delay > tclk");
        }
        break;
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
/// offline reference for the bit-identity check.
struct OracleFixture {
  core::TevotModel model;
  std::string model_dir;
};

const OracleFixture& oracleFixture() {
  static const OracleFixture* fixture = [] {
    auto* f = new OracleFixture;
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
    f->model = core::TevotModel(config);
    f->model.train(traces, rng);
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("tevot_serve_oracle_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    f->model_dir = dir.string();
    f->model.save(f->model_dir + "/int_add.model");
    return f;
  }();
  return *fixture;
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

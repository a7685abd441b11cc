// tevot_loadgen — open-loop load generator for tevot_serve and
// tevot_router (src/fleet/loadgen.hpp).
//
//   tevot_loadgen --port P [--fu NAME] [--duration-s S] [--rate-qps Q]
//                 [--arrival poisson|uniform|bursty] [--connections N]
//                 [--batch-fraction F] [--batch-tuples N]
//                 [--malformed-fraction F] [--deadline-ms MS]
//                 [--seed N] [--label TEXT] [--json PATH]
//
// Drives 127.0.0.1:P with a reproducible mixed storm (plain predicts,
// predictN batches, malformed lines) on an open-loop arrival schedule
// and prints the classified summary on stdout. --json writes the
// BENCH_fleet_loadgen.json payload (achieved QPS, p50/p95/p99,
// shed/deadline/error counts); default path BENCH_fleet_loadgen.json
// in the current directory when --json is given without a value
// elsewhere in CI.
//
// Numeric flags must be complete, finite numbers in range: --rate-qps
// > 0, fractions in [0, 1], --connections in [1, 1024], --batch-tuples
// in [1, 256], --seed a whole number up to 2^53; anything else is a
// usage error.
//
// Exit codes: 0 storm completed (server answers, however degraded,
// are data, not failures), 1 nothing was ever answered, 2 usage
// error, 130 interrupted. SIGINT/SIGTERM stop the storm
// cooperatively: in-flight requests finish, the partial report is
// still printed — and flushed to --json with "interrupted": 1 — so a
// cut-short run leaves valid, classified data instead of nothing.
#include <csignal>
#include <cstdio>
#include <limits>
#include <string>

#include "fleet/loadgen.hpp"
#include "serve/protocol.hpp"
#include "util/env.hpp"
#include "util/signal.hpp"
#include "util/text_io.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: tevot_loadgen --port P [--fu NAME] [--duration-s S]\n"
      "                     [--rate-qps Q]\n"
      "                     [--arrival poisson|uniform|bursty]\n"
      "                     [--connections N] [--batch-fraction F]\n"
      "                     [--batch-tuples N] [--malformed-fraction F]\n"
      "                     [--deadline-ms MS] [--seed N] [--label TEXT]\n"
      "                     [--json PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tevot;

  constexpr double kNoLimit = std::numeric_limits<double>::max();
  constexpr double kPositive = std::numeric_limits<double>::min();
  // Every connection is a client thread.
  constexpr double kMaxConnections = 1024;
  fleet::LoadgenOptions options;
  std::string label = "default";
  std::string json_path;
  util::FlagReader flags("tevot_loadgen", argc, argv);
  while (flags.next()) {
    const std::string& arg = flags.flag();
    const char* v = nullptr;
    if (arg == "--port") {
      if (!flags.number(1, 65535, &options.port)) return usage();
    } else if (arg == "--fu") {
      if ((v = flags.value()) == nullptr) return usage();
      options.fu = v;
    } else if (arg == "--duration-s") {
      if (!flags.number(0, kNoLimit, &options.duration_s)) return usage();
    } else if (arg == "--rate-qps") {
      if (!flags.number(kPositive, kNoLimit, &options.rate_qps)) return usage();
    } else if (arg == "--arrival") {
      if ((v = flags.value()) == nullptr) return usage();
      if (!fleet::parseArrival(v, &options.arrival)) return usage();
    } else if (arg == "--connections") {
      if (!flags.number(1, kMaxConnections, &options.connections)) {
        return usage();
      }
    } else if (arg == "--batch-fraction") {
      if (!flags.number(0, 1, &options.batch_fraction)) return usage();
    } else if (arg == "--batch-tuples") {
      if (!flags.number(1, serve::kMaxBatchTuples, &options.batch_tuples)) {
        return usage();
      }
    } else if (arg == "--malformed-fraction") {
      if (!flags.number(0, 1, &options.malformed_fraction)) return usage();
    } else if (arg == "--deadline-ms") {
      if (!flags.number(0, kNoLimit, &options.deadline_ms)) return usage();
    } else if (arg == "--seed") {
      if (!flags.number(0, util::kMaxExactInteger, &options.seed)) {
        return usage();
      }
    } else if (arg == "--label") {
      if ((v = flags.value()) == nullptr) return usage();
      label = v;
    } else if (arg == "--json") {
      if ((v = flags.value()) == nullptr) return usage();
      json_path = v;
    } else {
      std::fprintf(stderr, "tevot_loadgen: unknown option %s\n",
                   arg.c_str());
      return usage();
    }
  }
  if (options.port == 0) return usage();

  util::SignalFlag signals({SIGINT, SIGTERM});
  options.stop = [&signals] { return signals.raised(); };

  std::fprintf(stderr,
               "tevot_loadgen: %s storm, %.0f qps x %.1fs over %d "
               "connections (seed %llu)\n",
               fleet::arrivalName(options.arrival), options.rate_qps,
               options.duration_s, options.connections,
               static_cast<unsigned long long>(options.seed));
  const fleet::LoadgenReport report = fleet::runLoadgen(options);
  std::printf("tevot_loadgen: %s%s\n", report.summaryLine().c_str(),
              report.interrupted ? " (interrupted)" : "");

  if (!json_path.empty()) {
    try {
      util::writeFileAtomic(json_path, "tevot_loadgen",
                            [&](util::TextWriter& out) {
                              out.text(report.toJson(label, options) + "\n");
                            });
    } catch (const util::StatusError& error) {
      std::fprintf(stderr, "tevot_loadgen: %s\n", error.what());
      return 1;
    }
    std::fprintf(stderr, "tevot_loadgen: wrote %s\n", json_path.c_str());
  }

  if (report.interrupted) {
    std::fprintf(stderr, "tevot_loadgen: interrupted by signal %d\n",
                 signals.lastSignal());
    return 130;  // 128 + SIGINT, shell convention
  }
  if (report.responsesReceived() == 0) {
    std::fprintf(stderr, "tevot_loadgen: no responses at all\n");
    return 1;
  }
  return 0;
}

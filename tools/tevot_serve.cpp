// tevot_serve — resilient TEVoT prediction server.
//
//   tevot_serve --model-dir DIR [--port P] [--queue N] [--max-conns N]
//               [--deadline-ms MS] [--drain-ms MS]
//               [--breaker-failures N] [--breaker-cooldown-ms MS]
//
// Each connection is served on its own thread (--max-conns caps them);
// --queue caps the predicts in flight across all connections, and a
// predict over the cap is answered with a typed SHED.
//
// Serves the newline-delimited protocol of src/serve/protocol.hpp on
// 127.0.0.1 (port 0 = ephemeral; the bound port is printed on stdout
// as "tevot_serve listening on 127.0.0.1:<port>" so scripts can parse
// it). DIR holds one "<fu>.model" file per served functional unit, as
// written by `tevot_cli train`.
//
// Signals:
//   SIGHUP          hot reload (validate-then-swap; failure keeps the
//                   previous models serving) — also available as the
//                   in-band `reload` request
//   SIGTERM/SIGINT  graceful drain: stop accepting, finish the
//                   requests in hand within --drain-ms, print final
//                   stats to stderr, exit 0
//
// TEVOT_FAULTS arms the serve.accept / serve.parse / serve.predict /
// serve.reload fault-injection points (util/fault_injection.hpp) for
// resilience testing; degraded behavior stays within the typed
// response taxonomy.
//
// Exit codes: 0 clean drain, 1 runtime failure (bad model dir, bind
// failure), 2 usage error.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "serve/server.hpp"
#include "util/fault_injection.hpp"
#include "util/signal.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: tevot_serve --model-dir DIR [--port P] [--queue N]\n"
      "                   [--max-conns N] [--deadline-ms MS]\n"
      "                   [--drain-ms MS] [--breaker-failures N]\n"
      "                   [--breaker-cooldown-ms MS] [--strict-verify]\n"
      "DIR: one <fu>.model per served unit (from `tevot_cli train`)\n"
      "--queue: cap on predicts in flight; over it a predict is SHED\n"
      "--strict-verify: refuse models that fail interval certification\n"
      "  (tevot_cli verify-model) at load and at every reload\n"
      "SIGHUP reloads models; SIGTERM/SIGINT drains and exits 0\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tevot;

  serve::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tevot_serve: %s needs a value\n",
                     arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (arg == "--model-dir") {
      if ((v = value()) == nullptr) return usage();
      options.model_dir = v;
    } else if (arg == "--port") {
      if ((v = value()) == nullptr) return usage();
      options.port = static_cast<int>(std::atol(v));
      if (options.port < 0 || options.port > 65535) return usage();
    } else if (arg == "--queue") {
      if ((v = value()) == nullptr) return usage();
      options.queue_capacity = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--max-conns") {
      if ((v = value()) == nullptr) return usage();
      options.max_connections = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--deadline-ms") {
      if ((v = value()) == nullptr) return usage();
      options.default_deadline_ms = std::atof(v);
    } else if (arg == "--drain-ms") {
      if ((v = value()) == nullptr) return usage();
      options.drain_deadline_ms = std::atof(v);
    } else if (arg == "--breaker-failures") {
      if ((v = value()) == nullptr) return usage();
      options.breaker.failure_threshold = static_cast<int>(std::atol(v));
    } else if (arg == "--breaker-cooldown-ms") {
      if ((v = value()) == nullptr) return usage();
      options.breaker.cooldown_ms = std::atof(v);
    } else if (arg == "--strict-verify") {
      options.strict_verify = true;
    } else {
      std::fprintf(stderr, "tevot_serve: unknown option %s\n",
                   arg.c_str());
      return usage();
    }
  }
  if (options.model_dir.empty()) return usage();

  util::ignoreSigpipe();
  // Installed before start() so no signal window exists where a
  // supervisor's SIGTERM would take the default (abrupt) disposition.
  util::SignalFlag terminate{SIGTERM, SIGINT};
  util::SignalFlag reload_signal{SIGHUP};

  if (util::FaultInjector::global().armed()) {
    std::fprintf(stderr, "tevot_serve: faults armed: %s\n",
                 util::FaultInjector::global().plan().spec().c_str());
  }

  serve::Server server(options);
  const util::Status started = server.start();
  if (!started.ok()) {
    std::fprintf(stderr, "tevot_serve: %s\n", started.message.c_str());
    return 1;
  }
  std::printf("tevot_serve listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);

  while (!terminate.raised()) {
    if (reload_signal.consume()) {
      // Outcome (including a failed validation keeping the old
      // models) is logged by the server; nothing to do here.
      (void)server.reload();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "tevot_serve: signal %d, draining\n",
               terminate.lastSignal());
  const serve::MetricsSnapshot final_stats = server.drainAndStop();
  std::fprintf(stderr, "tevot_serve: final stats: %s\n",
               final_stats.toLine().c_str());
  return 0;
}

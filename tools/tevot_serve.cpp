// tevot_serve — resilient TEVoT prediction server.
//
//   tevot_serve --model-dir DIR [--port P] [--max-conns N]
//               [--strict-verify]
//
// Each connection is served on its own thread and answers its own
// predicts, one at a time; --max-conns caps the connections (one over
// the cap is answered with a typed SHED), and so the predicts in
// flight. A predict expires only by its own wire deadline (0 or none =
// no deadline). A numeric value that is not a complete, finite,
// in-range number is a usage error.
//
// Serves the newline-delimited protocol of src/serve/protocol.hpp on
// 127.0.0.1 (port 0 = ephemeral; the bound port is printed on stdout
// as "tevot_serve listening on 127.0.0.1:<port>" so scripts can parse
// it). DIR holds one "<fu>.model" file per served functional unit, as
// written by `tevot_cli train`.
//
// Signals:
//   SIGHUP          hot reload (validate-then-swap; a failure is
//                   printed to stderr and the previous models keep
//                   serving) — also available as the in-band `reload`
//                   request
//   SIGTERM/SIGINT  graceful drain: stop accepting, finish the
//                   requests in hand within 2 s
//                   (serve::LineServer::kDrainDeadlineMs), print final
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
#include <string>
#include <thread>

#include "serve/server.hpp"
#include "util/env.hpp"
#include "util/fault_injection.hpp"
#include "util/signal.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: tevot_serve --model-dir DIR [--port P] [--max-conns N]\n"
      "                   [--strict-verify]\n"
      "DIR: one <fu>.model per served unit (from `tevot_cli train`)\n"
      "P: 0..65535 (0 = ephemeral); N: 1..65535\n"
      "--strict-verify: refuse models that fail interval certification\n"
      "  (tevot_cli verify-model) at load and at every reload\n"
      "SIGHUP reloads models; SIGTERM/SIGINT drains and exits 0\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tevot;

  serve::ServerOptions options;
  util::FlagReader flags("tevot_serve", argc, argv);
  while (flags.next()) {
    const std::string& arg = flags.flag();
    const char* v = nullptr;
    if (arg == "--model-dir") {
      if ((v = flags.value()) == nullptr) return usage();
      options.model_dir = v;
    } else if (arg == "--port") {
      if (!flags.number(0, 65535, &options.port)) return usage();
    } else if (arg == "--max-conns") {
      if (!flags.number(1, 65535, &options.max_connections)) return usage();
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
      const util::Status reloaded = server.reload();
      if (!reloaded.ok()) {
        std::fprintf(stderr,
                     "tevot_serve: reload failed (previous models kept): "
                     "%s\n",
                     reloaded.message.c_str());
      }
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

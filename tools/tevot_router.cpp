// tevot_router — front router + supervisor of a tevot_serve fleet.
//
//   tevot_router --model-dir DIR --serve-binary PATH [--port P]
//                [--shards N] [--policy replicated|per-fu]
//                [--fus "a,b;c;d"] [--health-interval-ms MS]
//
// Spawns N tevot_serve worker shards on ephemeral loopback ports and
// serves the exact tevot_serve newline protocol on the front port
// (0 = ephemeral), fanning requests out per src/fleet/router.hpp.
// Announcements on stdout, one line each, for scripts to parse:
//   tevot_router shard <i> pid <pid> port <port>   (per (re)spawn)
//   tevot_router listening on 127.0.0.1:<port>
//
// --fus assigns FU ownership under per-fu policy: shard lists are
// ';'-separated, FU names within a shard ','-separated. A shard is
// shed once its polled predicts in flight reach nine tenths of its
// connection cap (fleet::Router::kShedQueueFraction), and a shard that
// dies more than fleet::Supervisor::kMaxRestarts times stays down. A
// numeric value that is not a complete, finite, in-range number is a
// usage error.
//
// Signals:
//   SIGHUP          rolling zero-downtime reload, one shard at a time
//                   (also available as the in-band `reload` request)
//   SIGTERM/SIGINT  graceful drain: drain the router, SIGTERM the
//                   workers, print final stats to stderr, exit 0
//
// Exit codes: 0 clean drain, 1 runtime failure, 2 usage error.
#include <csignal>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "fleet/router.hpp"
#include "fleet/supervisor.hpp"
#include "util/env.hpp"
#include "util/signal.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: tevot_router --model-dir DIR --serve-binary PATH\n"
      "                    [--port P] [--shards N]\n"
      "                    [--policy replicated|per-fu] [--fus LISTS]\n"
      "                    [--health-interval-ms MS]\n"
      "LISTS: per-fu shard ownership, e.g. \"int_add,int_mul;alu\"\n"
      "P: 0..65535 (0 = ephemeral); --shards: 1..256\n"
      "--health-interval-ms >= 1\n"
      "SIGHUP rolls a reload across the fleet; SIGTERM/SIGINT drains\n");
  return 2;
}

/// "a,b;c" -> {{"a","b"},{"c"}}; empty segments allowed.
std::vector<std::vector<std::string>> parseFuLists(const std::string& text) {
  std::vector<std::vector<std::string>> lists(1);
  std::string current;
  for (const char c : text + ";") {
    if (c == ',' || c == ';') {
      if (!current.empty()) lists.back().push_back(current);
      current.clear();
      if (c == ';') lists.emplace_back();
    } else {
      current.push_back(c);
    }
  }
  while (!lists.empty() && lists.back().empty()) lists.pop_back();
  return lists;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tevot;

  constexpr double kNoLimit = std::numeric_limits<double>::max();
  fleet::SupervisorOptions supervisor_options;
  fleet::RouterOptions router_options;
  std::string fus_text;
  util::FlagReader flags("tevot_router", argc, argv);
  while (flags.next()) {
    const std::string& arg = flags.flag();
    const char* v = nullptr;
    if (arg == "--model-dir") {
      if ((v = flags.value()) == nullptr) return usage();
      supervisor_options.model_dir = v;
    } else if (arg == "--serve-binary") {
      if ((v = flags.value()) == nullptr) return usage();
      supervisor_options.serve_binary = v;
    } else if (arg == "--port") {
      if (!flags.number(0, 65535, &router_options.port)) return usage();
    } else if (arg == "--shards") {
      if (!flags.number(1, 256, &supervisor_options.shards)) return usage();
    } else if (arg == "--policy") {
      if ((v = flags.value()) == nullptr) return usage();
      if (!fleet::parseShardPolicy(v, &router_options.policy)) {
        return usage();
      }
    } else if (arg == "--fus") {
      if ((v = flags.value()) == nullptr) return usage();
      fus_text = v;
    } else if (arg == "--health-interval-ms") {
      if (!flags.number(1, kNoLimit, &router_options.health_interval_ms)) {
        return usage();
      }
    } else {
      std::fprintf(stderr, "tevot_router: unknown option %s\n",
                   arg.c_str());
      return usage();
    }
  }
  if (supervisor_options.model_dir.empty() ||
      supervisor_options.serve_binary.empty()) {
    return usage();
  }
  if (!fus_text.empty()) {
    supervisor_options.fus = parseFuLists(fus_text);
    if (supervisor_options.fus.size() > supervisor_options.shards) {
      std::fprintf(stderr,
                   "tevot_router: --fus lists %zu shards, --shards is %zu\n",
                   supervisor_options.fus.size(), supervisor_options.shards);
      return usage();
    }
  }

  util::ignoreSigpipe();
  util::SignalFlag terminate{SIGTERM, SIGINT};
  util::SignalFlag reload_signal{SIGHUP};

  supervisor_options.on_spawn = [](std::size_t shard, pid_t pid, int port) {
    std::printf("tevot_router shard %zu pid %d port %d\n", shard,
                static_cast<int>(pid), port);
    std::fflush(stdout);
  };

  fleet::Supervisor supervisor(supervisor_options);
  util::Status status = supervisor.startAll();
  if (!status.ok()) {
    std::fprintf(stderr, "tevot_router: %s\n", status.message.c_str());
    return 1;
  }

  fleet::Router router(router_options, supervisor.endpoints());
  supervisor.attachRouter(&router);
  status = router.start();
  if (!status.ok()) {
    std::fprintf(stderr, "tevot_router: %s\n", status.message.c_str());
    supervisor.stopAll();
    return 1;
  }
  std::printf("tevot_router listening on 127.0.0.1:%d\n", router.port());
  std::fflush(stdout);

  while (!terminate.raised()) {
    supervisor.poll();
    if (reload_signal.consume()) {
      const util::Status rolled = router.rollingReload();
      if (!rolled.ok()) {
        std::fprintf(stderr, "tevot_router: rolling reload failed: %s\n",
                     rolled.message.c_str());
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "tevot_router: signal %d, draining\n",
               terminate.lastSignal());
  const serve::MetricsSnapshot router_stats = router.drainAndStop();
  const serve::MetricsSnapshot worker_stats = router.workerStats();
  supervisor.stopAll();
  std::fprintf(stderr, "tevot_router: final stats: %s\n",
               router_stats.toLine().c_str());
  std::fprintf(stderr, "tevot_router: worker stats: %s\n",
               worker_stats.toLine().c_str());
  return 0;
}

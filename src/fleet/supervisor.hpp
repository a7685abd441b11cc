// Worker-process supervision for the serving fleet.
//
// The Supervisor owns N tevot_serve worker subprocesses: it spawns
// each with --port 0, parses the "listening on 127.0.0.1:<port>"
// announcement from the child's stdout pipe, and hands the resulting
// ShardEndpoints to the Router. poll() reaps dead children
// (waitpid WNOHANG) and respawns them on a fresh ephemeral port,
// telling the attached Router to take the shard out of rotation
// immediately (markShardDown) and to re-target it after the respawn
// (setShardPort); the router's health probe re-admits the shard once
// it answers. A shard that keeps dying is abandoned after
// kMaxRestarts (it stays down; the rest of the fleet keeps serving).
//
// Worker stderr is inherited, so worker logs — including each
// worker's final-stats drain line — land on the supervisor's stderr
// stream alongside the router's own summary.
#pragma once

#include <functional>
#include <string>
#include <sys/types.h>
#include <vector>

#include "fleet/router.hpp"
#include "util/status.hpp"

namespace tevot::fleet {

struct SupervisorOptions {
  std::string serve_binary;  ///< path to the tevot_serve executable
  std::string model_dir;
  std::size_t shards = 3;
  /// kPerFu only: fus[i] lists the FU names shard i owns. Sized to
  /// `shards` (unused entries empty). Ignored under kReplicated.
  std::vector<std::vector<std::string>> fus;
  /// Called after every (re)spawn — the tevot_router binary uses it
  /// to announce "shard <i> pid <pid> port <port>" for scripts.
  std::function<void(std::size_t shard, pid_t pid, int port)> on_spawn;
};

class Supervisor {
 public:
  /// Give up on a shard after this many respawns.
  static constexpr int kMaxRestarts = 20;
  /// How long to wait for a child's port announcement.
  static constexpr double kAnnounceTimeoutMs = 10000.0;

  explicit Supervisor(SupervisorOptions options);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Spawns every shard and waits for all port announcements.
  util::Status startAll();

  /// Router-facing endpoints (valid after startAll()).
  std::vector<ShardEndpoint> endpoints() const;

  /// Restart notifications go to this router (may be null).
  void attachRouter(Router* router) { router_ = router; }

  /// Reaps dead children and respawns them. Call periodically from
  /// the supervising loop. Returns the number of respawns performed.
  int poll();

  int shardPort(std::size_t shard) const;

  /// SIGTERMs every live worker and waits up to term_wait_ms each for
  /// a clean drain; SIGKILLs stragglers. Idempotent.
  void stopAll(double term_wait_ms = 5000.0);

 private:
  struct Worker {
    pid_t pid = -1;
    int port = 0;
    int restarts = 0;
    bool abandoned = false;
  };

  /// Spawns one worker and fills pid/port; a failed spawn or a missed
  /// announcement returns an error with the shard left dead.
  util::Status spawnShard(std::size_t shard);

  SupervisorOptions options_;
  std::vector<Worker> workers_;
  Router* router_ = nullptr;
};

}  // namespace tevot::fleet

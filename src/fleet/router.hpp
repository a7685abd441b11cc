// Front router of the TEVoT serving fleet.
//
// The router accepts the exact tevot_serve newline protocol on one
// loopback port and fans predict/predictN requests out over loopback
// TCP to N worker shards (each a serve::Server with its own ModelSet).
// Clients cannot tell a router from a single server: every request
// line still gets exactly one well-formed typed response (predictN: n
// lines), and relayed OK lines pass through byte-for-byte, so the
// hexfloat bit-identity contract of the single-server oracle holds
// end to end through the fleet. The router is a line handler over the
// same serve::LineServer core as serve::Server (accept, connection
// cap, framing, batched writes, drain), answering each client line
// inline on its connection thread; every client connection keeps its
// own cached backend connection per shard.
//
// Sharding policies:
//   kReplicated  every shard serves every FU; requests round-robin
//                over the eligible shards, and a failed forward
//                reroutes to the next eligible sibling, each shard
//                tried at most once per request (predicts are
//                idempotent, and rerouting only happens before the
//                first response line has been relayed).
//   kPerFu       each shard owns a fixed FU subset (ShardEndpoint::
//                fus); the owner is the only target, so a failed
//                forward degrades to a typed SHED.
//
// Shard health is one signal: the result of the last health probe. A
// shard is in rotation while (a) its port is set, (b) it is not
// administratively down (rolling reload / supervisor restart window),
// (c) its last probe succeeded, and (d) its load — in_flight/
// max_connections from the last polled worker stats line — is below
// kShedQueueFraction. The health thread probes every shard's in-band
// `stats` every health_interval_ms: a failed probe takes the shard out
// of rotation, the next successful one puts it back, and the parsed
// worker snapshot is cached for fleet-wide aggregation (exact
// cross-process histogram merge). A forward that relays nothing takes
// its shard out of rotation at once, as markShardDown does. When no
// shard is eligible the router sheds with a typed SHED — backpressure
// is never a silent drop or an unbounded queue.
//
// Rolling zero-downtime reload (`reload` verb or tevot_router's
// SIGHUP): one shard at a time — mark admin-down (drain: new
// requests redirect to siblings under kReplicated and shed under
// kPerFu), wait for that shard's in-flight count to reach zero, send
// the in-band `reload`, verify the generation bump, mark admin-up,
// proceed. A failing shard reload aborts the roll with the remaining
// shards untouched (their previous models keep serving).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/line_server.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "util/status.hpp"

namespace tevot::fleet {

enum class ShardPolicy { kReplicated, kPerFu };

const char* shardPolicyName(ShardPolicy policy);  ///< "replicated"/"per-fu"
/// Parses "replicated"/"per-fu"; false on anything else.
bool parseShardPolicy(std::string_view text, ShardPolicy* out);

/// One worker shard as the router sees it: a loopback port plus (for
/// kPerFu) the FU names it owns. An empty fus list under kPerFu owns
/// nothing; under kReplicated fus is ignored.
struct ShardEndpoint {
  int port = 0;
  std::vector<std::string> fus;
};

struct RouterOptions {
  /// Front listen port on 127.0.0.1; 0 binds an ephemeral port.
  int port = 0;
  ShardPolicy policy = ShardPolicy::kReplicated;
  std::size_t max_connections = 64;
  /// Health probe (worker stats poll) cadence.
  double health_interval_ms = 50.0;
  /// SO_RCVTIMEO on backend connections: bounds how long a dead or
  /// wedged shard can stall a relay before it degrades to a typed
  /// response. 0 disables the timeout.
  double backend_timeout_ms = 5000.0;
};

class Router {
 public:
  /// Shed new requests for a shard whose polled in_flight /
  /// max_connections is at or above this fraction.
  static constexpr double kShedQueueFraction = 0.9;
  /// Budget for the per-shard in-flight drain during rollingReload().
  static constexpr double kReloadDrainMs = 1000.0;

  Router(RouterOptions options, std::vector<ShardEndpoint> shards);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Probes every shard once, binds the front port and starts the
  /// acceptor + health threads.
  util::Status start();

  bool running() const { return core_.running(); }
  int port() const { return core_.port(); }
  std::size_t shardCount() const { return shards_.size(); }

  /// Router-side accounting: requests == ok+shed+deadline+errors over
  /// everything the router answered (relayed or self-generated), with
  /// router-measured latency. Gauges summarize the fleet: in_flight =
  /// summed worker in_flight/max_connections, generation = minimum
  /// worker generation. Shard health is the `health` verb's healthy=.
  serve::MetricsSnapshot stats() const;

  /// Exact cross-process aggregation of the last polled worker stats
  /// lines: counters summed, latency histograms merged bucket-wise.
  serve::MetricsSnapshot workerStats() const;

  /// Rolling zero-downtime reload across the fleet; stops at the
  /// first shard whose reload fails (its previous models keep
  /// serving, later shards are not touched).
  util::Status rollingReload();

  /// True while the shard is in rotation: port set, admin-up and its
  /// last probe succeeded (the load gate is applied per request).
  bool shardEligible(std::size_t shard) const;

  /// Supervisor hooks around a worker restart: markShardDown removes
  /// the shard from rotation immediately (without waiting for the next
  /// probe to fail); setShardPort re-targets the shard after a respawn
  /// and re-admits it once a probe succeeds.
  void markShardDown(std::size_t shard);
  void setShardPort(std::size_t shard, int port);

  /// Graceful drain: stop accepting, let in-flight relays finish
  /// within serve::LineServer::kDrainDeadlineMs, join everything.
  /// Idempotent. Returns the final router-side stats.
  serve::MetricsSnapshot drainAndStop();

 private:
  struct Shard {
    std::atomic<int> port{0};
    std::vector<std::string> fus;
    std::atomic<bool> admin_down{false};
    /// True once a health probe has succeeded on the current port;
    /// cleared by a failed probe or forward and by markShardDown/
    /// setShardPort, so a shard re-enters rotation only after it
    /// answers a probe.
    std::atomic<bool> probed_up{false};
    std::atomic<std::size_t> in_flight{0};
    /// in_flight/max_connections from the last poll, in 1/1024ths
    /// (atomic double is avoided for older toolchains).
    std::atomic<std::uint32_t> load_permille{0};
    mutable std::mutex stats_mutex;
    serve::MetricsSnapshot last_stats;  ///< guarded by stats_mutex
  };

  /// A cached backend connection plus the port it was dialed on, so a
  /// supervisor-restarted shard (new port) forces a reconnect.
  struct BackendConn {
    int port = 0;
    serve::LineClient client;
  };
  /// One client connection's backend connections, keyed by shard and
  /// used only from that connection's thread.
  using Backends = std::map<std::size_t, BackendConn>;

  void healthLoop();
  /// Probes every shard once, over `conns`.
  void probeRound(std::vector<BackendConn>& conns);
  serve::Response handleControl(const serve::Request& request);
  /// Routes one parsed predict/predictN; answers with exactly
  /// request.responseCount() lines.
  void routePredict(const serve::Request& request, std::string_view line,
                    Backends& backends, serve::Replies& out);
  /// The next eligible shard for `request`, or npos. `exclude` skips
  /// shards already tried this request.
  std::size_t pickShard(const serve::Request& request,
                        const std::vector<bool>& exclude) const;
  bool probeShard(std::size_t index, BackendConn* conn);

  RouterOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<std::string, std::size_t> fu_owner_;  ///< kPerFu routing map

  std::mutex reload_mutex_;  ///< serializes rollingReload()s
  mutable std::atomic<std::uint64_t> round_robin_{0};
  /// Declared after the members its threads call into, so it is
  /// destroyed (and joined) before them.
  serve::LineServer core_;
  std::thread health_;
};

}  // namespace tevot::fleet

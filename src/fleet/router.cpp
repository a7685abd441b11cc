#include "fleet/router.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "util/log.hpp"

namespace tevot::fleet {

namespace {

constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

}  // namespace

const char* shardPolicyName(ShardPolicy policy) {
  switch (policy) {
    case ShardPolicy::kReplicated: return "replicated";
    case ShardPolicy::kPerFu: return "per-fu";
  }
  return "?";
}

bool parseShardPolicy(std::string_view text, ShardPolicy* out) {
  if (text == "replicated") {
    *out = ShardPolicy::kReplicated;
    return true;
  }
  if (text == "per-fu") {
    *out = ShardPolicy::kPerFu;
    return true;
  }
  return false;
}

Router::Router(RouterOptions options, std::vector<ShardEndpoint> shards)
    : options_(std::move(options)),
      core_({options_.port, options_.max_connections},
            [this](std::uint64_t) -> serve::LineServer::LineHandler {
              auto backends = std::make_shared<Backends>();
              return [this, backends](std::string_view line,
                                      serve::Replies& out) {
                // Malformed lines are rejected here; garbage never
                // reaches a worker.
                serve::Request request;
                if (core_.parsePredict(line, &request, out,
                                       [this](const serve::Request& r) {
                                         return handleControl(r);
                                       })) {
                  routePredict(request, line, *backends, out);
                }
              };
            }) {
  shards_.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->port.store(shards[i].port);
    shards_.back()->fus = std::move(shards[i].fus);
    for (const std::string& fu : shards_.back()->fus) {
      fu_owner_.emplace(fu, i);
    }
  }
}

Router::~Router() { drainAndStop(); }

util::Status Router::start() {
  if (running()) {
    return util::Status::invalidArgument("router already running");
  }
  if (shards_.empty()) {
    return util::Status::invalidArgument("router needs at least one shard");
  }
  if (options_.policy == ShardPolicy::kPerFu && fu_owner_.empty()) {
    return util::Status::invalidArgument(
        "per-fu policy needs shard fu assignments");
  }
  // One synchronous probe round so freshly started fleets route
  // immediately instead of shedding until the first health tick.
  std::vector<BackendConn> conns(shards_.size());
  probeRound(conns);
  const util::Status started = core_.start();
  if (!started.ok()) return started;
  health_ = std::thread([this] { healthLoop(); });
  util::logInfo() << "fleet: router listening on 127.0.0.1:" << port()
                  << " shards=" << shards_.size()
                  << " policy=" << shardPolicyName(options_.policy);
  return util::Status::okStatus();
}

bool Router::shardEligible(std::size_t shard) const {
  if (shard >= shards_.size()) return false;
  const Shard& s = *shards_[shard];
  return s.port.load() > 0 && !s.admin_down.load() && s.probed_up.load();
}

void Router::markShardDown(std::size_t shard) {
  if (shard >= shards_.size()) return;
  shards_[shard]->probed_up.store(false);
  shards_[shard]->load_permille.store(0);
}

void Router::setShardPort(std::size_t shard, int port) {
  if (shard >= shards_.size()) return;
  shards_[shard]->probed_up.store(false);
  shards_[shard]->load_permille.store(0);
  shards_[shard]->port.store(port);
}

serve::MetricsSnapshot Router::stats() const {
  serve::MetricsSnapshot snap = core_.metrics().snapshot();
  std::uint64_t min_generation = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->stats_mutex);
    snap.in_flight += shard->last_stats.in_flight;
    snap.max_connections += shard->last_stats.max_connections;
    const std::uint64_t generation = shard->last_stats.generation;
    if (generation > 0 &&
        (min_generation == 0 || generation < min_generation)) {
      min_generation = generation;
    }
  }
  snap.generation = min_generation;
  return snap;
}

serve::MetricsSnapshot Router::workerStats() const {
  serve::MetricsSnapshot merged;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->stats_mutex);
    merged.mergeFrom(shard->last_stats);
  }
  return merged;
}

bool Router::probeShard(std::size_t index, BackendConn* conn) {
  Shard& shard = *shards_[index];
  const int port = shard.port.load();
  if (port <= 0) return false;
  const auto fail = [&] {
    conn->client.close();
    markShardDown(index);
    return false;
  };
  if (!conn->client.connected() || conn->port != port) {
    conn->port = port;
    if (!conn->client.connectTo(port, options_.backend_timeout_ms).ok()) {
      return fail();
    }
  }
  if (!conn->client.sendLine("stats")) return fail();
  const std::optional<std::string> raw = conn->client.readLine();
  if (!raw.has_value()) return fail();
  serve::Response response;
  if (!serve::parseResponse(*raw, &response) ||
      response.status != serve::ResponseStatus::kOk) {
    return fail();
  }
  // The stats payload is "stats <k=v line>"; parse it exactly.
  std::string_view detail = response.detail;
  serve::MetricsSnapshot worker;
  if (!serve::parseMetricsLine(detail, &worker)) return fail();
  // The shed gate is set before the snapshot is published, so whoever
  // reads this in_flight from stats() also sees the gate it implies.
  shard.load_permille.store(
      worker.max_connections == 0
          ? 0
          : static_cast<std::uint32_t>((worker.in_flight * 1024) /
                                       worker.max_connections));
  {
    const std::lock_guard<std::mutex> lock(shard.stats_mutex);
    shard.last_stats = worker;
  }
  shard.probed_up.store(true);
  return true;
}

void Router::probeRound(std::vector<BackendConn>& conns) {
  for (std::size_t i = 0; i < shards_.size(); ++i) probeShard(i, &conns[i]);
}

void Router::healthLoop() {
  std::vector<BackendConn> conns(shards_.size());
  const auto interval =
      std::chrono::duration<double, std::milli>(options_.health_interval_ms);
  // start() has just probed every shard, so each round waits first: an
  // immediate second round could race a markShardDown() right after
  // start and re-admit the shard.
  while (!core_.draining()) {
    // Sleep in small ticks so drain isn't held up by a long interval.
    auto remaining = interval;
    while (remaining.count() > 0.0 && !core_.draining()) {
      const auto tick = std::min(
          remaining, std::chrono::duration<double, std::milli>(10.0));
      std::this_thread::sleep_for(tick);
      remaining -= tick;
    }
    if (!core_.draining()) probeRound(conns);
  }
}

serve::Response Router::handleControl(const serve::Request& request) {
  switch (request.kind) {
    case serve::RequestKind::kHealth: {
      std::size_t healthy = 0;
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (shardEligible(i)) ++healthy;
      }
      char buf[192];
      std::snprintf(
          buf, sizeof(buf),
          "health status=%s shards=%zu healthy=%zu policy=%s "
          "generation=%llu",
          core_.draining() ? "draining" : "serving", shards_.size(),
          healthy, shardPolicyName(options_.policy),
          static_cast<unsigned long long>(stats().generation));
      return serve::Response::payload(buf);
    }
    case serve::RequestKind::kStats:
      return serve::Response::payload("stats " + stats().toLine());
    case serve::RequestKind::kReload: {
      const util::Status status = rollingReload();
      if (!status.ok()) {
        return serve::Response::error(serve::ErrorCode::kReloadFailed,
                                      status.message);
      }
      return serve::Response::payload(
          "reload generation=" + std::to_string(stats().generation) +
          " shards=" + std::to_string(shards_.size()));
    }
    case serve::RequestKind::kPredict:
      break;
  }
  return serve::Response::error(serve::ErrorCode::kInternal,
                                "bad control dispatch");
}

std::size_t Router::pickShard(const serve::Request& request,
                              const std::vector<bool>& exclude) const {
  const auto admissible = [&](std::size_t i) {
    return shardEligible(i) && !exclude[i] &&
           shards_[i]->load_permille.load() <
               static_cast<std::uint32_t>(kShedQueueFraction * 1024.0);
  };
  if (options_.policy == ShardPolicy::kPerFu) {
    const auto owner = fu_owner_.find(request.fu);
    if (owner == fu_owner_.end()) return kNoShard;
    return admissible(owner->second) ? owner->second : kNoShard;
  }
  const std::size_t n = shards_.size();
  const std::uint64_t start =
      round_robin_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t index = (start + i) % n;
    if (admissible(index)) return index;
  }
  return kNoShard;
}

void Router::routePredict(const serve::Request& request,
                          std::string_view line, Backends& backends,
                          serve::Replies& out) {
  const std::size_t lines = request.responseCount();
  const auto arrival = std::chrono::steady_clock::now();

  // Per-FU requests for a FU no shard owns are refused up front with
  // the same typed error a worker would produce.
  if (options_.policy == ShardPolicy::kPerFu &&
      fu_owner_.find(request.fu) == fu_owner_.end()) {
    out.add(serve::Response::error(serve::ErrorCode::kUnknownFu,
                                   "unknown fu '" + request.fu + "'"),
            lines);
    return;
  }

  const std::string forward(line);
  std::vector<bool> tried(shards_.size(), false);
  std::vector<std::string> responses;
  // Each shard is tried at most once: kReplicated moves on to the next
  // eligible sibling, and kPerFu's owner is the only candidate.
  for (std::size_t index = pickShard(request, tried); index != kNoShard;
       index = pickShard(request, tried)) {
    tried[index] = true;
    Shard& shard = *shards_[index];
    shard.in_flight.fetch_add(1, std::memory_order_acq_rel);
    BackendConn& backend = backends[index];
    const int port = shard.port.load();
    responses.clear();
    if (!backend.client.connected() || backend.port != port) {
      backend.port = port;
      if (!backend.client.connectTo(port, options_.backend_timeout_ms)
               .ok()) {
        backend.client.close();
      }
    }
    if (backend.client.connected() && backend.client.sendLine(forward)) {
      while (responses.size() < lines) {
        std::optional<std::string> response = backend.client.readLine();
        if (!response.has_value()) break;
        responses.push_back(std::move(*response));
      }
    }
    shard.in_flight.fetch_sub(1, std::memory_order_acq_rel);
    if (!responses.empty()) {
      for (const std::string& response : responses) out.relay(response);
      if (responses.size() < lines) {
        // A conforming shard answers every parsed line with exactly n
        // lines, so a short answer means it died (or broke the rule)
        // mid-batch. The relayed prefix cannot be retried
        // (duplicates), so the remainder degrades to typed errors and
        // the batch still answers with exactly n lines.
        backend.client.close();
        markShardDown(index);
        out.add(serve::Response::error(serve::ErrorCode::kInternal,
                                       "shard connection lost mid-batch"),
                lines - responses.size());
      }
      core_.metrics().recordLatencyMs(serve::msSince(arrival));
      return;
    }
    // Nothing was relayed: the shard leaves rotation until its next
    // successful probe, and this idempotent request is safe to reroute.
    backend.client.close();
    markShardDown(index);
  }
  out.add(serve::Response::shed("no eligible shard"), lines);
}

util::Status Router::rollingReload() {
  const std::lock_guard<std::mutex> lock(reload_mutex_);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    const int port = shard.port.load();
    // A down shard is skipped, not an error: its supervisor restart
    // loads the new models anyway.
    if (port <= 0 || !shard.probed_up.load()) continue;
    shard.admin_down.store(true);
    const auto drain_start = std::chrono::steady_clock::now();
    while (shard.in_flight.load() > 0 &&
           serve::msSince(drain_start) < kReloadDrainMs) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    serve::LineClient admin;
    std::optional<std::string> raw;
    if (admin.connectTo(port, options_.backend_timeout_ms).ok() &&
        admin.sendLine("reload")) {
      raw = admin.readLine();
    }
    serve::Response response;
    const bool reloaded = raw.has_value() &&
                          serve::parseResponse(*raw, &response) &&
                          response.status == serve::ResponseStatus::kOk;
    shard.admin_down.store(false);
    if (!reloaded) {
      const util::Status failure = util::Status::ioError(
          "shard " + std::to_string(i) +
          ": reload failed: " + raw.value_or("no response"));
      core_.metrics().reload_failures.fetch_add(1,
                                                std::memory_order_relaxed);
      return failure;
    }
    core_.metrics().reloads.fetch_add(1, std::memory_order_relaxed);
  }
  util::logInfo() << "fleet: rolling reload complete";
  return util::Status::okStatus();
}

serve::MetricsSnapshot Router::drainAndStop() {
  if (core_.drainAndStop()) {
    if (health_.joinable()) health_.join();
    util::logInfo() << "fleet: router drained; " << stats().toLine();
  }
  return stats();
}

}  // namespace tevot::fleet

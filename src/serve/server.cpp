#include "serve/server.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "circuits/fu.hpp"
#include "liberty/corner.hpp"
#include "util/log.hpp"

namespace tevot::serve {

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      registry_(options_.model_dir, options_.strict_verify),
      core_({options_.port, options_.max_connections},
            [this](std::uint64_t id) -> LineServer::LineHandler {
              // Injected accept fault: the connection is dropped
              // before any request is read.
              if (faultAt("serve.accept", id)) return {};
              return [this](std::string_view line, Replies& out) {
                handleLine(line, out);
              };
            }) {
  faults_ = options_.faults != nullptr ? options_.faults
                                       : &util::FaultInjector::global();
}

Server::~Server() { drainAndStop(); }

bool Server::faultAt(std::string_view point, std::uint64_t id) {
  return faults_->armed() && faults_->shouldFail(point, std::to_string(id));
}

util::Status Server::start() {
  if (running()) {
    return util::Status::invalidArgument("server already running");
  }
  const util::Status loaded = registry_.reload(nullptr);
  if (!loaded.ok()) return loaded;
  const util::Status started = core_.start();
  if (!started.ok()) return started;
  util::logInfo() << "serve: listening on 127.0.0.1:" << port()
                  << " max_conns=" << options_.max_connections;
  return util::Status::okStatus();
}

util::Status Server::reload() {
  const util::Status status = registry_.reload(faults_);
  ServeMetrics& metrics = core_.metrics();
  if (status.ok()) {
    metrics.reloads.fetch_add(1, std::memory_order_relaxed);
  } else {
    metrics.reload_failures.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

MetricsSnapshot Server::stats() const {
  MetricsSnapshot snap = core_.metrics().snapshot();
  snap.in_flight = in_flight_.load();
  // LineServer treats a cap of 0 as 1.
  snap.max_connections = std::max<std::size_t>(options_.max_connections, 1);
  snap.generation = registry_.generation();
  return snap;
}

void Server::handleLine(std::string_view line, Replies& out) {
  const std::uint64_t id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  // serve.parse fires on a line that parsed, so a faulted line still
  // gets its responseCount() lines: one for a control verb, n for a
  // predictN.
  const auto parse_fault = [] {
    return Response::error(ErrorCode::kFaultInjected,
                           "injected fault at serve.parse");
  };
  Request request;
  if (!core_.parsePredict(line, &request, out, [&](const Request& r) {
        return faultAt("serve.parse", id) ? parse_fault() : handleControl(r);
      })) {
    return;
  }
  if (faultAt("serve.parse", id)) {
    out.add(parse_fault(), request.responseCount());
    return;
  }
  const auto arrival = std::chrono::steady_clock::now();
  in_flight_.fetch_add(1);
  predict(request, id, arrival, out);
  in_flight_.fetch_sub(1);
}

Response Server::handleControl(const Request& request) {
  switch (request.kind) {
    case RequestKind::kHealth: {
      const MetricsSnapshot snap = stats();
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "health status=%s generation=%llu models=%zu "
                    "in_flight=%llu/%llu",
                    core_.draining() ? "draining" : "serving",
                    static_cast<unsigned long long>(snap.generation),
                    registry_.snapshot()->models.size(),
                    static_cast<unsigned long long>(snap.in_flight),
                    static_cast<unsigned long long>(snap.max_connections));
      return Response::payload(buf);
    }
    case RequestKind::kStats:
      return Response::payload("stats " + stats().toLine());
    case RequestKind::kReload: {
      const util::Status status = reload();
      if (!status.ok()) {
        return Response::error(ErrorCode::kReloadFailed, status.message);
      }
      const std::shared_ptr<const ModelSet> set = registry_.snapshot();
      return Response::payload(
          "reload generation=" + std::to_string(set->generation) +
          " models=" + std::to_string(set->models.size()));
    }
    case RequestKind::kPredict:
      break;
  }
  return Response::error(ErrorCode::kInternal, "bad control dispatch");
}

void Server::predict(const Request& request, std::uint64_t id,
                     std::chrono::steady_clock::time_point arrival,
                     Replies& out) {
  // A batch fails or succeeds as a unit: deadline and error outcomes
  // are replicated per tuple so the client still receives exactly n
  // lines. Fault points fire once per batch (keyed by request id), not
  // per tuple.
  const std::size_t lines = request.responseCount();
  const auto fail = [&](ErrorCode code, const std::string& detail) {
    out.add(Response::error(code, detail), lines);
  };
  // One model snapshot: this request is served entirely from one
  // generation even if a reload lands while it runs.
  const std::shared_ptr<const ModelSet> models = registry_.snapshot();
  const core::TevotModel* model = models->find(request.fu);
  if (model == nullptr) {
    return circuits::fuFromSlug(request.fu)
               ? fail(ErrorCode::kModelUnavailable,
                      "no model loaded for '" + request.fu + "'")
               : fail(ErrorCode::kUnknownFu,
                      "unknown fu '" + request.fu + "'");
  }
  std::vector<double> delays(lines, 0.0);
  try {
    if (faults_->armed()) {
      // serve.slow (delay) is a separate point from serve.predict
      // (failure) so tests can arm slow backends without also arming
      // failures — the deterministic way to hold predicts in flight.
      const std::string key = std::to_string(id);
      faults_->maybeDelay("serve.slow", key);
      faults_->maybeThrow("serve.predict", key);
    }
    const liberty::Corner corner{request.voltage, request.temperature};
    std::vector<core::DelayQuery> queries;
    queries.reserve(lines);
    for (const BatchOperand& operand : request.batch) {
      queries.push_back(
          {operand.a, operand.b, operand.prev_a, operand.prev_b, corner});
    }
    model->predictDelayBatch(queries, delays);
  } catch (const util::StatusError& error) {
    return fail(error.status().code == util::StatusCode::kFaultInjected
                    ? ErrorCode::kFaultInjected
                    : ErrorCode::kInternal,
                error.status().message);
  } catch (const std::exception& error) {
    return fail(ErrorCode::kInternal, error.what());
  }
  const double elapsed_ms = msSince(arrival);
  if (request.deadline_ms > 0.0 && elapsed_ms > request.deadline_ms) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "served in %.3f ms > deadline %.3f ms",
                  elapsed_ms, request.deadline_ms);
    out.add(Response::deadline(buf), lines);
    return;
  }
  core_.metrics().recordLatencyMs(elapsed_ms);
  for (const double delay_ps : delays) {
    out.add(Response::ok(delay_ps, delay_ps > request.tclk_ps));
  }
}

MetricsSnapshot Server::drainAndStop() {
  if (core_.drainAndStop()) {
    util::logInfo() << "serve: drained; " << stats().toLine();
  }
  return stats();
}

}  // namespace tevot::serve

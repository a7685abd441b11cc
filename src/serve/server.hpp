// Long-running, multi-threaded TEVoT prediction server.
//
// Thread model: the request handler over serve::LineServer (one
// acceptor, one thread per live connection, bounded by
// max_connections). Each connection thread answers its own requests
// inline, one line at a time, so responses are trivially ordered. A
// line that parses is answered with exactly Request::responseCount()
// typed lines in tuple order (a shed, expired or fault-injected
// predictN yields n SHED/DEADLINE/ERROR lines; the metrics invariant
// requests == ok+shed+deadline+errors counts each tuple as a
// request), a line that does not parse with one. A connection thread
// runs at most one predict at a time, so the predicts in flight (the
// `in_flight` gauge) never exceed max_connections, its capacity. A
// predict takes the immutable model snapshot current when it starts
// (reload atomicity) and is checked against its end-to-end deadline
// once, after compute.
//
// Robustness surface:
//  * load shedding   connection cap + drain, SHED responses
//  * deadlines       per-request (the request's own; 0 = none),
//                    checked after compute
//  * hot reload      ModelRegistry validate-then-swap (control
//                    `reload` request; tevot_serve also maps SIGHUP)
//  * graceful drain  drainAndStop(): stop accepting, finish the
//                    requests in hand (buffered predicts are shed)
//                    within LineServer::kDrainDeadlineMs, join all
//  * fault injection serve.accept / serve.parse / serve.predict /
//                    serve.reload (failures) and serve.slow (delay)
//                    sites, armed via TEVOT_FAULTS or a
//                    local injector — degradation is deterministic and
//                    testable (check::checkServeResilience)
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "serve/line_server.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "util/fault_injection.hpp"

namespace tevot::serve {

struct ServerOptions {
  std::string model_dir;
  /// Listen port on 127.0.0.1; 0 binds an ephemeral port (see port()).
  int port = 0;
  /// Connection cap; also the capacity of the `in_flight` gauge.
  std::size_t max_connections = 64;
  /// Gate loads/reloads through interval certification
  /// (verify::certifyModelForServing) on top of the point-canary
  /// validation; an uncertifiable model is refused and the previous
  /// set keeps serving.
  bool strict_verify = false;
  /// Fault injector for the serve.* points; nullptr uses
  /// util::FaultInjector::global() (armed via TEVOT_FAULTS).
  util::FaultInjector* faults = nullptr;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Loads models, binds and starts all threads. Returns a typed
  /// error (and starts nothing) on load/bind failure.
  util::Status start();

  bool running() const { return core_.running(); }
  /// The bound port (after start()).
  int port() const { return core_.port(); }

  /// Hot reload from the model directory; on failure the previous
  /// models keep serving.
  util::Status reload();

  /// Counters plus live gauges (predicts in flight out of
  /// max_connections, generation).
  MetricsSnapshot stats() const;

  /// Graceful drain: stop accepting, finish the requests in hand
  /// within LineServer::kDrainDeadlineMs, join every thread.
  /// Idempotent.
  /// Returns the final stats snapshot.
  MetricsSnapshot drainAndStop();

 private:
  void handleLine(std::string_view line, Replies& out);
  Response handleControl(const Request& request);
  /// Answers a predict/predictN with request.responseCount() lines
  /// from one TevotModel::predictDelayBatch call (a predict is a batch
  /// of one); deadline/error outcomes are replicated per tuple.
  void predict(const Request& request, std::uint64_t id,
               std::chrono::steady_clock::time_point arrival, Replies& out);
  /// Whether the armed injector fails `point` for request `id`; the
  /// key string is built only when a plan is armed.
  bool faultAt(std::string_view point, std::uint64_t id);

  ServerOptions options_;
  ModelRegistry registry_;
  util::FaultInjector* faults_ = nullptr;
  std::atomic<std::size_t> in_flight_{0};  ///< predicts in flight
  std::atomic<std::uint64_t> next_request_id_{1};
  /// Declared after the members its threads call into, so it is
  /// destroyed (and joined) before them.
  LineServer core_;
};

}  // namespace tevot::serve

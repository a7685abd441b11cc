#include "dvfs/backend.hpp"

#include <algorithm>
#include <exception>

#include "serve/protocol.hpp"

namespace tevot::dvfs {

const char* windowOutcomeName(WindowOutcome outcome) {
  switch (outcome) {
    case WindowOutcome::kOk: return "ok";
    case WindowOutcome::kShed: return "shed";
    case WindowOutcome::kDeadline: return "deadline";
    case WindowOutcome::kError: return "error";
    case WindowOutcome::kDisconnect: return "disconnect";
  }
  return "unknown";
}

InProcessBackend::InProcessBackend(const core::TevotModel& model,
                                   std::string fu_slug,
                                   util::FaultInjector* faults)
    : model_(model),
      fu_slug_(std::move(fu_slug)),
      faults_(faults ? faults : &util::FaultInjector::global()) {}

WindowPrediction InProcessBackend::predictWindow(
    const WindowedStream& stream, const Window& w) {
  WindowPrediction out;
  try {
    faults_->maybeThrow("dvfs.predict",
                        fu_slug_ + ":" + std::to_string(w.first));
    std::vector<core::DelayQuery> queries;
    queries.reserve(w.cycles());
    for (std::size_t t = w.first; t < w.last; ++t) {
      const dta::OperandPair cur = stream.operandAt(t);
      const dta::OperandPair prev = stream.previousOperandAt(t);
      queries.push_back(
          core::DelayQuery{cur.a, cur.b, prev.a, prev.b, w.corner});
    }
    out.delays_ps.resize(queries.size());
    model_.predictDelayBatch(queries, out.delays_ps);
  } catch (const std::exception& e) {
    out = WindowPrediction{};
    out.outcome = WindowOutcome::kError;
    out.detail = e.what();
  }
  return out;
}

ServeBackend::ServeBackend(std::string fu_slug, Options options)
    : fu_slug_(std::move(fu_slug)), options_(std::move(options)) {}

WindowPrediction ServeBackend::attemptWindow(const WindowedStream& stream,
                                             const Window& w) {
  WindowPrediction out;
  out.delays_ps.reserve(w.cycles());
  // The first degraded line decides the window. A conforming server
  // answers every line this backend writes with exactly n lines (a
  // batch-level outcome is replicated per tuple), but a peer that
  // breaks the rule could answer the batch with fewer, and blocking
  // for the remainder would deadlock. So the connection is closed,
  // which discards any replicated tail, and the next window redials.
  for (std::size_t first = w.first; first < w.last;
       first += serve::kMaxBatchTuples) {
    const std::size_t last =
        std::min(first + serve::kMaxBatchTuples, w.last);
    std::vector<serve::BatchOperand> tuples;
    tuples.reserve(last - first);
    for (std::size_t t = first; t < last; ++t) {
      const dta::OperandPair cur = stream.operandAt(t);
      const dta::OperandPair prev = stream.previousOperandAt(t);
      tuples.push_back(serve::BatchOperand{cur.a, cur.b, prev.a, prev.b});
    }
    const std::string line = serve::formatBatchRequest(
        fu_slug_, w.corner.voltage, w.corner.temperature,
        options_.tclk_hint_ps, tuples);
    if (!client_.sendLine(line)) {
      out = WindowPrediction{};
      out.outcome = WindowOutcome::kDisconnect;
      out.detail = "send failed";
      return out;
    }
    for (std::size_t t = first; t < last; ++t) {
      const std::optional<std::string> reply = client_.readLine();
      if (!reply) {
        out = WindowPrediction{};
        out.outcome = WindowOutcome::kDisconnect;
        out.detail = "connection lost mid-batch";
        return out;
      }
      serve::Response response;
      const bool parsed = serve::parseResponse(*reply, &response);
      if (parsed && response.status == serve::ResponseStatus::kOk) {
        out.delays_ps.push_back(response.delay_ps);
        continue;
      }
      out.delays_ps.clear();
      if (!parsed) {
        out.outcome = WindowOutcome::kError;
        out.detail = "unparseable response: " + *reply;
      } else {
        switch (response.status) {
          case serve::ResponseStatus::kShed:
            out.outcome = WindowOutcome::kShed;
            out.detail = response.detail;
            break;
          case serve::ResponseStatus::kDeadline:
            out.outcome = WindowOutcome::kDeadline;
            out.detail = response.detail;
            break;
          default:
            out.outcome = WindowOutcome::kError;
            out.detail = std::string(serve::errorCodeName(response.code)) +
                         " " + response.detail;
            break;
        }
      }
      client_.close();  // unknown tail length; drop it with the socket
      return out;
    }
  }
  return out;
}

WindowPrediction ServeBackend::predictWindow(const WindowedStream& stream,
                                             const Window& w) {
  if (!ever_connected_) {
    const util::Status status = client_.connectTo(options_.port);
    if (!status.ok()) {
      WindowPrediction out;
      out.outcome = WindowOutcome::kDisconnect;
      out.detail = status.message;
      return out;
    }
    ever_connected_ = true;
  }
  WindowPrediction out;
  for (int attempt = 0; attempt <= kResends; ++attempt) {
    if (attempt > 0 || !client_.connected()) {
      const util::Status status = client_.reconnect();
      if (!status.ok()) {
        out = WindowPrediction{};
        out.outcome = WindowOutcome::kDisconnect;
        out.detail = status.message;
        return out;
      }
    }
    out = attemptWindow(stream, w);
    if (out.outcome != WindowOutcome::kDisconnect) return out;
  }
  out.detail += " (resend budget exhausted)";
  return out;
}

}  // namespace tevot::dvfs

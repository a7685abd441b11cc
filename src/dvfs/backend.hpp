// Delay-prediction backends for the DVFS controller.
//
// The controller asks one question per window — "predicted dynamic
// delay for each transition, at this corner" — through this interface,
// so the same control loop runs against an in-process TevotModel or a
// live tevot_serve endpoint. The answer is *typed*: a backend never
// throws into the control loop and never returns partial numbers; a
// degraded window comes back as exactly one WindowOutcome the
// controller maps onto its fallback ladder (DESIGN.md §5i). That
// closed taxonomy is what makes the fallback accounting exact:
// degraded responses == fallback windows, by construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dvfs/stream.hpp"
#include "serve/client.hpp"
#include "tevot/model.hpp"
#include "util/fault_injection.hpp"

namespace tevot::dvfs {

/// Per-window backend verdict. kOk carries delays; everything else is
/// a degradation the controller resolves to the certified safe clock.
enum class WindowOutcome {
  kOk,          ///< delays_ps filled, one per transition
  kShed,        ///< server shed the window (overload / draining)
  kDeadline,    ///< per-request deadline exceeded
  kError,       ///< typed ERROR response, injected fault, or backend throw
  kDisconnect,  ///< connection lost and every resend failed
};

/// "ok" / "shed" / "deadline" / "error" / "disconnect".
const char* windowOutcomeName(WindowOutcome outcome);

struct WindowPrediction {
  WindowOutcome outcome = WindowOutcome::kOk;
  std::vector<double> delays_ps;  ///< valid only when outcome == kOk
  std::string detail;             ///< degradation detail for the report
};

class DelayBackend {
 public:
  virtual ~DelayBackend() = default;

  /// Predicted delays for every transition of `w`, or one typed
  /// degradation. Must not throw.
  virtual WindowPrediction predictWindow(const WindowedStream& stream,
                                         const Window& w) = 0;

  virtual const char* name() const = 0;
};

/// Library-path backend over TevotModel::predictDelayBatch. The
/// `dvfs.predict` fault point (keyed "<fu>:<first transition>", so
/// injection is deterministic at any thread count) turns a window
/// into kError for fallback testing without a server in the loop.
class InProcessBackend : public DelayBackend {
 public:
  /// `model` must outlive the backend. `faults` nullptr uses the
  /// process-global injector (TEVOT_FAULTS).
  InProcessBackend(const core::TevotModel& model, std::string fu_slug,
                   util::FaultInjector* faults = nullptr);

  WindowPrediction predictWindow(const WindowedStream& stream,
                                 const Window& w) override;
  const char* name() const override { return "in-process"; }

 private:
  const core::TevotModel& model_;
  std::string fu_slug_;
  util::FaultInjector* faults_;
};

/// Live-serving backend: predictN batches over the newline protocol,
/// one connection per backend (per FU). Windows wider than the
/// protocol's batch cap are split across several predictN lines. A
/// dropped connection is redialed through LineClient::reconnect() and
/// the whole window is resent (requests are idempotent), at most
/// kResends times; only then does the window degrade to kDisconnect.
class ServeBackend : public DelayBackend {
 public:
  /// Full-window resends after a mid-window disconnect.
  static constexpr int kResends = 2;

  struct Options {
    int port = 0;
    /// Clock the wire protocol classifies err= against; the
    /// controller only consumes the delay, so any positive value
    /// works — the certified clock is the natural choice.
    double tclk_hint_ps = 1000.0;
  };

  ServeBackend(std::string fu_slug, Options options);

  WindowPrediction predictWindow(const WindowedStream& stream,
                                 const Window& w) override;
  const char* name() const override { return "serve"; }

 private:
  /// One attempt at the full window. kDisconnect means "torn, resend".
  WindowPrediction attemptWindow(const WindowedStream& stream,
                                 const Window& w);

  std::string fu_slug_;
  Options options_;
  serve::LineClient client_;
  bool ever_connected_ = false;
};

}  // namespace tevot::dvfs

// Circuit breaker around one failure domain: fleet::Router keeps one
// per worker shard (a process) and routes around the shard while its
// breaker is not CLOSED.
//
// State machine (the classic three states):
//   CLOSED    requests flow; `failure_threshold` consecutive failures
//             trip the breaker OPEN.
//   OPEN      requests are rejected without touching the backend;
//             after `cooldown_ms` the next allow() transitions to
//             HALF_OPEN and admits a single probe.
//   HALF_OPEN exactly one probe is in flight; its success closes the
//             breaker, its failure re-opens it (fresh cooldown).
//
// Time is passed in by the caller (steady_clock::now() by default) so
// unit tests drive the cooldown deterministically without sleeping.
// All methods are thread-safe.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>

namespace tevot::serve {

struct BreakerConfig {
  int failure_threshold = 5;     ///< consecutive failures to trip
  double cooldown_ms = 1000.0;   ///< OPEN dwell before the first probe
};

class CircuitBreaker {
 public:
  using Clock = std::chrono::steady_clock;

  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(BreakerConfig config = {});

  /// Whether a request may proceed now; may transition OPEN→HALF_OPEN.
  bool allow(Clock::time_point now = Clock::now());
  void recordSuccess();
  void recordFailure(Clock::time_point now = Clock::now());

  State state() const;
  int consecutiveFailures() const;
  /// Times the breaker tripped OPEN (monotonic counter, for stats).
  std::uint64_t opens() const;

 private:
  BreakerConfig config_;
  mutable std::mutex mutex_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  bool probe_in_flight_ = false;
  Clock::time_point opened_at_{};
  std::uint64_t opens_ = 0;
};

const char* breakerStateName(CircuitBreaker::State state);

}  // namespace tevot::serve

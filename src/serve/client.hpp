// Minimal blocking line client for the tevot_serve protocol. Every
// client of a server or router speaks through it: fleet::Router (shard
// probes and relays), dvfs::ServeBackend, tevot_loadgen, the perfbench
// driver, the resilience oracles (and so `tevot_cli serve-check`) and
// the serve tests.
#pragma once

#include <optional>
#include <string>

#include "util/fd.hpp"
#include "util/status.hpp"

namespace tevot::serve {

class LineClient {
 public:
  /// Hard cap on one response line. A server response is at most a
  /// stats line (~2 KiB); a peer streaming an unbounded "line" is a
  /// protocol violation, and readLine fails instead of buffering it.
  static constexpr std::size_t kMaxResponseLineBytes = 1 << 20;

  /// reconnect()'s fixed schedule: at most kReconnectAttempts dials,
  /// sleeping kReconnectBackoffMs before the second and doubling the
  /// sleep before each later one (1, 2, 4, 8 ms). There is no jitter,
  /// so a controller retrying through a fault storm stays exactly
  /// reproducible.
  static constexpr int kReconnectAttempts = 5;
  static constexpr double kReconnectBackoffMs = 1.0;

  LineClient() = default;

  /// Connects to 127.0.0.1:port. A refused connection is an IoError
  /// (callers retry while a freshly spawned server binds).
  /// recv_timeout_ms > 0 arms SO_RCVTIMEO so readLine() fails instead
  /// of blocking forever on a wedged peer (the fleet router bounds
  /// backend stalls with this).
  util::Status connectTo(int port, double recv_timeout_ms = 0.0);

  /// Re-dials the port of the last connectTo() (with its recv
  /// timeout) on the fixed schedule above. Closes any half-dead socket
  /// first; on success the read buffer is empty (mid-stream partial
  /// lines are discarded — the newline protocol cannot resume a torn
  /// response, callers resend the request). Fails with the last
  /// attempt's IoError plus the attempt count; kInvalidArgument when
  /// connectTo() never succeeded (no port to redial).
  util::Status reconnect();

  bool connected() const { return fd_.valid(); }

  /// Sends `line` plus a trailing newline. False once the peer is gone.
  bool sendLine(const std::string& line);

  /// Blocks for the next full response line (newline stripped).
  /// nullopt on EOF / connection reset, and on a response line over
  /// kMaxResponseLineBytes — the connection is closed in that case
  /// (mid-line state is unrecoverable), so connected() turns false.
  std::optional<std::string> readLine();

  void close();

 private:
  util::UniqueFd fd_;
  std::string buffer_;
  int last_port_ = 0;  ///< 0 until the first connectTo()
  double last_recv_timeout_ms_ = 0.0;
};

}  // namespace tevot::serve

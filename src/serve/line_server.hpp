// The connection core shared by serve::Server and fleet::Router.
//
// LineServer owns everything about the newline protocol except what a
// request means: the loopback listener; one acceptor thread with the
// connection cap (over it, one `SHED connection limit` line and
// close); one thread per live connection; the framing (kMaxLineBytes
// cap with exactly one ERROR OVERSIZED per overlong line, terminated
// or not; CRLF stripped; blank lines skipped); one send() per
// request's response lines, each counted by status; reaping; and the
// graceful drain.
//
// Every accepted connection gets its own LineHandler from the session
// factory, called only from that connection's thread, one line at a
// time, so it may keep per-connection state without locking. The
// handler answers inline by adding lines to a Replies, which the core
// sends once the handler returns.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "util/fd.hpp"
#include "util/status.hpp"

namespace tevot::serve {

/// Milliseconds elapsed on the steady clock since `start`.
double msSince(std::chrono::steady_clock::time_point start);

/// The response lines of one request line, and its tally.
class Replies {
 public:
  /// Appends `copies` serialized copies of `response` (a batch outcome
  /// is replicated once per tuple).
  void add(const Response& response, std::size_t copies = 1);
  /// Appends an already-serialized line byte for byte (the router's
  /// relay). It is parsed only to count its status; an unparseable
  /// line counts as an error.
  void relay(std::string_view line);

 private:
  friend class LineServer;
  void count(ResponseStatus status);

  LineTally tally_;
  std::string wire_;
};

class LineServer {
 public:
  /// Answers one framed line: never blank, never over kMaxLineBytes,
  /// and already counted as one request.
  using LineHandler = std::function<void(std::string_view line, Replies&)>;
  /// Called per accepted connection with ids counting up from 1. An
  /// empty handler drops the connection before any request is read.
  using SessionFactory = std::function<LineHandler(std::uint64_t id)>;

  struct Options {
    int port = 0;  ///< on 127.0.0.1; 0 binds an ephemeral port
    std::size_t max_connections = 64;
  };

  /// Budget for drainAndStop() to finish the requests in hand.
  static constexpr double kDrainDeadlineMs = 2000.0;

  LineServer(Options options, SessionFactory open_session);
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds, listens and starts the acceptor; a typed IoError (and
  /// nothing started) when the port cannot be bound.
  util::Status start();

  bool running() const { return running_.load(); }
  /// True from the start of drainAndStop().
  bool draining() const { return draining_.load(); }
  int port() const { return bound_port_; }

  ServeMetrics& metrics() { return metrics_; }
  const ServeMetrics& metrics() const { return metrics_; }

  /// The request steps both handlers share: parses `line` and answers
  /// it unless it is a predict to serve. A malformed line gets its
  /// typed error, a control verb the response of `control`, and a
  /// predict while draining one SHED per tuple. A predictN's other
  /// tuples are counted as requests, so requests ==
  /// ok+shed+deadline+errors. True when `request` is a
  /// predict/predictN the caller must answer.
  bool parsePredict(std::string_view line, Request* request, Replies& out,
                    const std::function<Response(const Request&)>& control);

  /// Stops accepting and half-closes every connection: its thread
  /// answers the lines it has already read (handlers shed predicts
  /// while draining), then sees EOF. Waits up to kDrainDeadlineMs for
  /// the connection threads, then joins them. False when the server
  /// was not running.
  bool drainAndStop();

 private:
  struct Connection {
    util::UniqueFd fd;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void acceptLoop();
  void serveConnection(int fd, const LineHandler& handler);
  void reapFinishedConnections();

  Options options_;
  SessionFactory open_session_;
  ServeMetrics metrics_;

  util::UniqueFd listen_fd_;
  int bound_port_ = 0;

  std::mutex connections_mutex_;
  std::list<Connection> connections_;  ///< guarded by connections_mutex_

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::uint64_t next_connection_id_ = 1;  ///< acceptor thread only
  std::thread acceptor_;
};

}  // namespace tevot::serve

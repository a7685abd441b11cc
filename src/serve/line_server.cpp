#include "serve/line_server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/log.hpp"

namespace tevot::serve {

double msSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void Replies::count(ResponseStatus status) {
  ++tally_.outcomes[static_cast<std::size_t>(status)];
}

void Replies::add(const Response& response, std::size_t copies) {
  const std::string line = response.serialize() + "\n";
  for (std::size_t i = 0; i < copies; ++i) {
    count(response.status);
    wire_ += line;
  }
}

void Replies::relay(std::string_view line) {
  Response response;
  count(parseResponse(line, &response) ? response.status
                                       : ResponseStatus::kError);
  wire_ += line;
  wire_ += '\n';
}

LineServer::LineServer(Options options, SessionFactory open_session)
    : options_(options), open_session_(std::move(open_session)) {
  if (options_.max_connections == 0) options_.max_connections = 1;
}

LineServer::~LineServer() { drainAndStop(); }

util::Status LineServer::start() {
  util::UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    return util::Status::ioError(std::string("socket: ") +
                                 std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return util::Status::ioError("bind 127.0.0.1:" +
                                 std::to_string(options_.port) + ": " +
                                 std::strerror(errno));
  }
  if (::listen(fd.get(), 128) != 0) {
    return util::Status::ioError(std::string("listen: ") +
                                 std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return util::Status::ioError(std::string("getsockname: ") +
                                 std::strerror(errno));
  }
  bound_port_ = static_cast<int>(ntohs(bound.sin_port));
  listen_fd_ = std::move(fd);
  draining_.store(false);
  running_.store(true);
  acceptor_ = std::thread([this] { acceptLoop(); });
  return util::Status::okStatus();
}

void LineServer::acceptLoop() {
  while (!draining_.load()) {
    pollfd pfd{listen_fd_.get(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      util::logWarn() << "serve: poll: " << std::strerror(errno);
      break;
    }
    reapFinishedConnections();
    if (rc == 0 || (pfd.revents & POLLIN) == 0) continue;
    util::UniqueFd conn(::accept4(listen_fd_.get(), nullptr, nullptr,
                                  SOCK_CLOEXEC));
    if (!conn.valid()) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener shut down under us (drain) or fatal
    }
    metrics_.connections.fetch_add(1, std::memory_order_relaxed);
    LineHandler handler = open_session_(next_connection_id_++);
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    if (handler && connections_.size() >= options_.max_connections) {
      util::sendAll(conn.get(),
                    Response::shed("connection limit").serialize() + "\n");
      handler = nullptr;
    }
    if (!handler) {
      // The client observes a clean EOF, never a hang.
      metrics_.connections_dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Connection& entry = connections_.emplace_back();
    entry.fd = std::move(conn);
    entry.thread = std::thread([this, &entry, handler = std::move(handler)] {
      serveConnection(entry.fd.get(), handler);
      entry.done.store(true);
    });
  }
}

void LineServer::reapFinishedConnections() {
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  connections_.remove_if([](Connection& connection) {
    if (!connection.done.load()) return false;
    connection.thread.join();
    return true;
  });
}

void LineServer::serveConnection(int fd, const LineHandler& handler) {
  Replies replies;
  const auto answer = [&](std::string_view line) {
    ++replies.tally_.requests;
    if (line.size() > kMaxLineBytes) {
      replies.add(Response::error(ErrorCode::kOversized,
                                  "request line exceeds " +
                                      std::to_string(kMaxLineBytes) +
                                      " bytes"));
    } else {
      handler(line, replies);
    }
    metrics_.publish(replies.tally_);
    replies.tally_ = {};
    util::sendAll(fd, replies.wire_);  // a failed write: client gone
    replies.wire_.clear();
  };
  std::string buffer;
  bool discarding = false;  // inside an oversized line, until '\n'
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF, error, or drain's shutdown(SHUT_RD)
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    for (std::size_t nl; (nl = buffer.find('\n', begin)) != std::string::npos;
         begin = nl + 1) {
      std::string_view line(buffer.data() + begin, nl - begin);
      if (discarding) {
        discarding = false;  // tail of the oversized line; already answered
        continue;
      }
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.size() > kMaxLineBytes ||
          line.find_first_not_of(" \t") != std::string_view::npos) {
        answer(line);
      }
    }
    buffer.erase(0, begin);
    if (discarding) {
      buffer.clear();
    } else if (buffer.size() > kMaxLineBytes) {
      // The line already exceeds the cap without a terminator: answer
      // once, then swallow until the newline arrives.
      answer(buffer);
      discarding = true;
      buffer.clear();
    }
  }
}

bool LineServer::parsePredict(
    std::string_view line, Request* request, Replies& out,
    const std::function<Response(const Request&)>& control) {
  const util::Status parsed = parseRequest(line, request);
  if (!parsed.ok()) {
    // Parse failures are per-line: one BAD_REQUEST/PARSE even for a
    // malformed predictN (there is no trustworthy tuple count yet).
    out.add(responseForParseFailure(parsed));
    return false;
  }
  const std::size_t lines = request->responseCount();
  out.tally_.requests += lines - 1;
  if (request->kind != RequestKind::kPredict) {
    out.add(control(*request));
    return false;
  }
  if (draining()) {
    out.add(Response::shed("draining"), lines);
    return false;
  }
  return true;
}

bool LineServer::drainAndStop() {
  bool was_running = true;
  if (!running_.compare_exchange_strong(was_running, false)) return false;
  draining_.store(true);
  // Wake the acceptor out of poll and stop new connections.
  if (listen_fd_.valid()) ::shutdown(listen_fd_.get(), SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    for (Connection& connection : connections_) {
      ::shutdown(connection.fd.get(), SHUT_RD);
    }
  }
  const auto all_done = [this] {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    return std::all_of(connections_.begin(), connections_.end(),
                       [](const Connection& c) { return c.done.load(); });
  };
  const auto drain_start = std::chrono::steady_clock::now();
  while (!all_done() && msSince(drain_start) <= kDrainDeadlineMs) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  for (Connection& connection : connections_) connection.thread.join();
  connections_.clear();
  listen_fd_.reset();
  return true;
}

}  // namespace tevot::serve

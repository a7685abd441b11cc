#include "fleet/supervisor.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "util/env.hpp"
#include "util/log.hpp"

namespace tevot::fleet {

namespace {

/// Reads the child's stdout through `fd` until the port announcement
/// or EOF/timeout; returns the port (<= 0 on failure, and for an
/// announcement that is not a port number in [1, 65535]).
int readAnnouncement(int fd, double timeout_ms) {
  const char* marker = "listening on 127.0.0.1:";
  std::string out;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(timeout_ms));
  char c = 0;
  for (;;) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count();
    if (remaining <= 0) return -1;
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(remaining));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return -1;
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return -1;  // child exited before announcing
    if (c != '\n') {
      out.push_back(c);
      continue;
    }
    const std::size_t pos = out.find(marker);
    if (pos != std::string::npos) {
      // The rest of the line is the port: digits only, in range.
      const std::string_view rest =
          std::string_view(out).substr(pos + std::strlen(marker));
      int port = -1;
      if (rest.find_first_not_of("0123456789") != std::string_view::npos ||
          !util::parseNumber(rest, 1, 65535, &port)) {
        return -1;
      }
      return port;
    }
    out.clear();
  }
}

}  // namespace

Supervisor::Supervisor(SupervisorOptions options)
    : options_(std::move(options)) {
  if (options_.shards == 0) options_.shards = 1;
  workers_.resize(options_.shards);
  options_.fus.resize(options_.shards);
}

Supervisor::~Supervisor() { stopAll(0.0); }

util::Status Supervisor::spawnShard(std::size_t shard) {
  Worker& worker = workers_[shard];
  worker.pid = -1;
  worker.port = 0;
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) {
    return util::Status::ioError(std::string("pipe: ") +
                                 std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return util::Status::ioError(std::string("fork: ") +
                                 std::strerror(errno));
  }
  if (pid == 0) {
    ::close(out_pipe[0]);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[1]);
    // stderr is inherited: worker logs and final drain stats land on
    // the supervisor's stderr stream.
    const char* const argv[] = {options_.serve_binary.c_str(),
                                "--model-dir",
                                options_.model_dir.c_str(),
                                "--port",
                                "0",
                                nullptr};
    ::execv(argv[0], const_cast<char* const*>(argv));
    std::fprintf(stderr, "fleet: execv %s: %s\n",
                 options_.serve_binary.c_str(), std::strerror(errno));
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  const int port = readAnnouncement(out_pipe[0], kAnnounceTimeoutMs);
  ::close(out_pipe[0]);
  if (port <= 0) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return util::Status::ioError("shard " + std::to_string(shard) +
                                 ": worker never announced a port");
  }
  worker.pid = pid;
  worker.port = port;
  util::logInfo() << "fleet: shard " << shard << " pid " << pid
                  << " port " << port;
  if (options_.on_spawn) options_.on_spawn(shard, pid, port);
  return util::Status::okStatus();
}

util::Status Supervisor::startAll() {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const util::Status status = spawnShard(i);
    if (!status.ok()) {
      stopAll(0.0);
      return status;
    }
  }
  return util::Status::okStatus();
}

std::vector<ShardEndpoint> Supervisor::endpoints() const {
  std::vector<ShardEndpoint> endpoints;
  endpoints.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    endpoints.push_back({workers_[i].port, options_.fus[i]});
  }
  return endpoints;
}

int Supervisor::poll() {
  int respawned = 0;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& worker = workers_[i];
    if (worker.pid < 0 || worker.abandoned) continue;
    int status = 0;
    const pid_t reaped = ::waitpid(worker.pid, &status, WNOHANG);
    if (reaped != worker.pid) continue;
    util::logWarn() << "fleet: shard " << i << " (pid " << worker.pid
                    << ") died ("
                    << (WIFSIGNALED(status)
                            ? "signal " + std::to_string(WTERMSIG(status))
                            : "exit " +
                                  std::to_string(WEXITSTATUS(status)))
                    << ")";
    worker.pid = -1;
    if (router_ != nullptr) router_->markShardDown(i);
    if (++worker.restarts > kMaxRestarts) {
      worker.abandoned = true;
      util::logWarn() << "fleet: shard " << i << " abandoned after "
                      << kMaxRestarts << " restarts";
      continue;
    }
    const util::Status status_respawn = spawnShard(i);
    if (!status_respawn.ok()) {
      util::logWarn() << "fleet: shard " << i
                      << " respawn failed: " << status_respawn.message;
      continue;
    }
    if (router_ != nullptr) router_->setShardPort(i, worker.port);
    ++respawned;
  }
  return respawned;
}

int Supervisor::shardPort(std::size_t shard) const {
  return shard < workers_.size() ? workers_[shard].port : 0;
}

void Supervisor::stopAll(double term_wait_ms) {
  for (Worker& worker : workers_) {
    if (worker.pid < 0) continue;
    ::kill(worker.pid, SIGTERM);
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(term_wait_ms));
  for (Worker& worker : workers_) {
    if (worker.pid < 0) continue;
    int status = 0;
    for (;;) {
      const pid_t reaped = ::waitpid(worker.pid, &status, WNOHANG);
      if (reaped == worker.pid) {
        worker.pid = -1;
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(worker.pid, SIGKILL);
        ::waitpid(worker.pid, &status, 0);
        worker.pid = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

}  // namespace tevot::fleet

// Multi-process test fixture for the fleet suites: fork/exec a
// tevot_serve or tevot_router binary, parse its stdout announcements
// (bound port, shard pid/port lines), capture stderr to a file, and
// kill/await it. Reused by the router, rolling-reload, and shard-kill
// tests; binary paths are compiled in via TEVOT_SERVE_BINARY /
// TEVOT_ROUTER_BINARY.
#pragma once

#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

namespace tevot::fleet_test {

/// One shard announcement: "... shard <i> pid <pid> port <port>".
struct ShardInfo {
  std::size_t index = 0;
  pid_t pid = -1;
  int port = 0;
};

/// A supervised child process (worker or router binary).
class Process {
 public:
  Process() = default;
  Process(Process&& other) noexcept { *this = std::move(other); }
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      reset();
      pid_ = other.pid_;
      stdout_fd_ = other.stdout_fd_;
      port_ = other.port_;
      stderr_path_ = std::move(other.stderr_path_);
      line_ = std::move(other.line_);
      shards_ = std::move(other.shards_);
      other.pid_ = -1;
      other.stdout_fd_ = -1;
      other.stderr_path_.clear();
    }
    return *this;
  }

  ~Process() { reset(); }

  /// fork/execs `binary` with `args`; stdout is piped back for
  /// announcement parsing, stderr goes to a capture file that is
  /// removed with the Process.
  static Process spawn(const std::string& binary,
                       const std::vector<std::string>& args) {
    static int counter = 0;
    Process process;
    process.stderr_path_ = testing::TempDir() + "tevot_fleet_stderr_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(counter++);
    int out_pipe[2];
    if (::pipe(out_pipe) != 0) return process;
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(out_pipe[0]);
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::close(out_pipe[1]);
      FILE* err = std::fopen(process.stderr_path_.c_str(), "wb");
      if (err != nullptr) ::dup2(fileno(err), STDERR_FILENO);
      std::vector<char*> argv;
      std::string binary_copy = binary;
      argv.push_back(binary_copy.data());
      std::vector<std::string> args_copy = args;
      for (std::string& arg : args_copy) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(out_pipe[1]);
    process.pid_ = pid;
    process.stdout_fd_ = out_pipe[0];
    return process;
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  const std::vector<ShardInfo>& shards() const { return shards_; }

  /// Reads stdout announcements until the "listening on
  /// 127.0.0.1:<port>" line (filling port() and shards()) or the
  /// timeout. False on timeout/early exit.
  bool awaitReady(double timeout_ms = 30000.0) {
    return pumpStdout(timeout_ms, /*until_listening=*/true);
  }

  /// Keeps reading announcements until a shard with a pid different
  /// from `old_pid` is announced at `index` (a supervisor respawn).
  bool awaitRespawn(std::size_t index, pid_t old_pid,
                    double timeout_ms = 30000.0) {
    const auto deadline_ms = timeout_ms;
    const auto start = nowMs();
    while (nowMs() - start < deadline_ms) {
      for (const ShardInfo& shard : shards_) {
        if (shard.index == index && shard.pid != old_pid) return true;
      }
      if (!pumpStdout(50.0, /*until_listening=*/false) &&
          !alive()) {
        return false;
      }
    }
    return false;
  }

  bool alive() const {
    return pid_ > 0 && ::kill(pid_, 0) == 0;
  }

  void signal(int signo) {
    if (pid_ > 0) ::kill(pid_, signo);
  }

  /// Blocks until exit; -1 when signal-killed, exit code otherwise.
  int wait() {
    if (pid_ <= 0) return -1;
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::string readStderr() const {
    std::string text;
    FILE* f = std::fopen(stderr_path_.c_str(), "rb");
    if (f == nullptr) return text;
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      text.append(buffer, n);
    }
    std::fclose(f);
    return text;
  }

 private:
  void reset() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) {
      ::close(stdout_fd_);
      stdout_fd_ = -1;
    }
    if (!stderr_path_.empty()) {
      std::remove(stderr_path_.c_str());
      stderr_path_.clear();
    }
  }

  static double nowMs() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) * 1000.0 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  }

  /// Byte-reads stdout with poll() deadlines, folding every complete
  /// line into the announcement state. True if (until_listening) the
  /// listening line arrived, else true if any line arrived.
  bool pumpStdout(double timeout_ms, bool until_listening) {
    if (stdout_fd_ < 0) return false;
    const double start = nowMs();
    bool progressed = false;
    for (;;) {
      if (until_listening && port_ > 0) return true;
      const double remaining = timeout_ms - (nowMs() - start);
      if (remaining <= 0) return until_listening ? port_ > 0 : progressed;
      pollfd pfd{stdout_fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, static_cast<int>(remaining));
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) return until_listening ? port_ > 0 : progressed;
      char c = 0;
      const ssize_t n = ::read(stdout_fd_, &c, 1);
      if (n <= 0) return until_listening ? port_ > 0 : progressed;
      if (c != '\n') {
        line_.push_back(c);
        continue;
      }
      parseAnnouncement(line_);
      line_.clear();
      progressed = true;
    }
  }

  void parseAnnouncement(const std::string& line) {
    const char* listen_marker = "listening on 127.0.0.1:";
    const std::size_t listen_pos = line.find(listen_marker);
    if (listen_pos != std::string::npos) {
      port_ = std::atoi(line.c_str() + listen_pos +
                        std::strlen(listen_marker));
      return;
    }
    // "tevot_router shard <i> pid <pid> port <port>"
    const std::size_t shard_pos = line.find("shard ");
    if (shard_pos == std::string::npos) return;
    ShardInfo info;
    int pid = 0;
    if (std::sscanf(line.c_str() + shard_pos, "shard %zu pid %d port %d",
                    &info.index, &pid, &info.port) == 3) {
      info.pid = pid;
      shards_.push_back(info);
    }
  }

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = -1;
  std::string stderr_path_;
  std::string line_;
  std::vector<ShardInfo> shards_;
};

/// The most recent announcement for shard `index` (respawns append).
inline const ShardInfo* latestShard(const std::vector<ShardInfo>& shards,
                                    std::size_t index) {
  const ShardInfo* found = nullptr;
  for (const ShardInfo& shard : shards) {
    if (shard.index == index) found = &shard;
  }
  return found;
}

}  // namespace tevot::fleet_test

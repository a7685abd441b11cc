// Minimal leveled logging to stderr.
//
// The library itself is quiet by default; benches and examples raise
// the level for progress reporting on long sweeps. TEVOT_LOG controls
// the initial level (error|warn|info|debug).
//
// Thread safety: logMessage is line-atomic — the full line (prefix,
// message, newline) is written with a single fwrite under one mutex,
// so concurrent ThreadPool workers and serve threads never shear each
// other's lines.
#pragma once

#include <cstdio>
#include <sstream>
#include <string>

namespace tevot::util {

enum class LogLevel { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

LogLevel logLevel();
void setLogLevel(LogLevel level);

/// Redirects log output (default stderr); returns the previous sink.
/// nullptr restores stderr. The caller keeps ownership of the FILE.
std::FILE* setLogSink(std::FILE* sink);

/// Emits one line to the sink if `level` is enabled. Line-atomic
/// across threads.
void logMessage(LogLevel level, const std::string& message);

namespace detail {

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { logMessage(level_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace detail

inline detail::LogLine logWarn() { return detail::LogLine(LogLevel::kWarn); }
inline detail::LogLine logInfo() { return detail::LogLine(LogLevel::kInfo); }

}  // namespace tevot::util

// Structured error taxonomy for the fault-tolerant sweep machinery.
//
// A Status pairs a machine-readable code with a human-readable
// message, so a sweep's per-job outcome can be classified (I/O error
// vs. injected fault vs. malformed input) without string-matching
// exception texts. StatusError is the exception carrier: library code
// that must throw (parsers, checkpoint I/O, fault injection) throws
// StatusError, and statusFromException() recovers the taxonomy at the
// recording site — any foreign std::exception degrades gracefully to
// kInternal.
#pragma once

#include <exception>
#include <stdexcept>
#include <string>

namespace tevot::util {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,    ///< caller handed in something malformed
  kIoError,            ///< file open/read/write/rename failure
  kParseError,         ///< malformed input text (SDF/Liberty/VCD/trace)
  kFaultInjected,      ///< deterministic failure from FaultInjector
  kCancelled,          ///< job not started (stop requested)
  kInternal,           ///< unclassified exception
};

/// Stable upper-case name for reports and logs, e.g. "IO_ERROR".
const char* statusCodeName(StatusCode code);

struct Status {
  StatusCode code = StatusCode::kOk;
  std::string message;

  bool ok() const { return code == StatusCode::kOk; }

  /// "OK" or "<CODE>: <message>".
  std::string toString() const;

  static Status okStatus() { return {}; }
  static Status invalidArgument(std::string message);
  static Status ioError(std::string message);
  static Status parseError(std::string message);
  static Status faultInjected(std::string message);
  static Status cancelled(std::string message);
  static Status internal(std::string message);
};

/// The message an errno value maps to ("No such file or directory").
std::string errnoText(int errno_value);

/// I/O status with the offending path and errno text spelled out:
/// "IO_ERROR: <op> <path>: <errno text>".
Status ioErrorFor(const std::string& op, const std::string& path,
                  int errno_value);

/// Exception type carrying a Status. what() is status().toString().
class StatusError : public std::runtime_error {
 public:
  explicit StatusError(Status status);
  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Classifies a caught exception: StatusError keeps its taxonomy, any
/// other std::exception becomes kInternal with its what(), anything
/// else kInternal with a placeholder.
Status statusFromException(std::exception_ptr error);

}  // namespace tevot::util

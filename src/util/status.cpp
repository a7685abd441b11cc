#include "util/status.hpp"

#include <system_error>
#include <utility>

namespace tevot::util {

const char* statusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kIoError: return "IO_ERROR";
    case StatusCode::kParseError: return "PARSE_ERROR";
    case StatusCode::kFaultInjected: return "FAULT_INJECTED";
    case StatusCode::kCancelled: return "CANCELLED";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

std::string Status::toString() const {
  if (ok()) return "OK";
  std::string text = statusCodeName(code);
  if (!message.empty()) {
    text += ": ";
    text += message;
  }
  return text;
}

Status Status::invalidArgument(std::string message) {
  return {StatusCode::kInvalidArgument, std::move(message)};
}
Status Status::ioError(std::string message) {
  return {StatusCode::kIoError, std::move(message)};
}
Status Status::parseError(std::string message) {
  return {StatusCode::kParseError, std::move(message)};
}
Status Status::faultInjected(std::string message) {
  return {StatusCode::kFaultInjected, std::move(message)};
}
Status Status::cancelled(std::string message) {
  return {StatusCode::kCancelled, std::move(message)};
}
Status Status::internal(std::string message) {
  return {StatusCode::kInternal, std::move(message)};
}

std::string errnoText(int errno_value) {
  return std::generic_category().message(errno_value);
}

Status ioErrorFor(const std::string& op, const std::string& path,
                  int errno_value) {
  return Status::ioError(op + " " + path + ": " + errnoText(errno_value));
}

StatusError::StatusError(Status status)
    : std::runtime_error(status.toString()), status_(std::move(status)) {}

Status statusFromException(std::exception_ptr error) {
  if (!error) return Status::okStatus();
  try {
    std::rethrow_exception(error);
  } catch (const StatusError& status_error) {
    return status_error.status();
  } catch (const std::exception& exception) {
    return Status::internal(exception.what());
  } catch (...) {
    return Status::internal("non-standard exception");
  }
}

}  // namespace tevot::util

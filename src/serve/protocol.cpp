#include "serve/protocol.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "util/env.hpp"

namespace tevot::serve {
namespace {

std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) {
      ++pos;
    }
    const std::size_t start = pos;
    while (pos < line.size() && line[pos] != ' ' && line[pos] != '\t') {
      ++pos;
    }
    if (pos > start) tokens.push_back(line.substr(start, pos - start));
  }
  return tokens;
}

/// 32-bit operand, base 0 (0x hex accepted), entire token.
bool parseWord32(std::string_view token, std::uint32_t* out) {
  const std::string text(token);
  if (!text.empty() && (text[0] == '-' || text[0] == '+')) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 0);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) return false;
  if (value > 0xffffffffull) return false;
  *out = static_cast<std::uint32_t>(value);
  return true;
}

}  // namespace

const char* responseStatusName(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk: return "OK";
    case ResponseStatus::kShed: return "SHED";
    case ResponseStatus::kDeadline: return "DEADLINE";
    case ResponseStatus::kError: return "ERROR";
  }
  return "?";
}

const char* errorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "NONE";
    case ErrorCode::kParse: return "PARSE";
    case ErrorCode::kBadRequest: return "BAD_REQUEST";
    case ErrorCode::kOversized: return "OVERSIZED";
    case ErrorCode::kUnknownFu: return "UNKNOWN_FU";
    case ErrorCode::kModelUnavailable: return "MODEL_UNAVAILABLE";
    case ErrorCode::kReloadFailed: return "RELOAD_FAILED";
    case ErrorCode::kFaultInjected: return "FAULT_INJECTED";
    case ErrorCode::kInternal: return "INTERNAL";
  }
  return "?";
}

std::string Response::serialize() const {
  switch (status) {
    case ResponseStatus::kOk: {
      if (!detail.empty()) return "OK " + detail;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "OK delay=%a err=%d", delay_ps,
                    timing_error ? 1 : 0);
      return buf;
    }
    case ResponseStatus::kShed:
      return "SHED " + detail;
    case ResponseStatus::kDeadline:
      return "DEADLINE " + detail;
    case ResponseStatus::kError:
      return std::string("ERROR ") + errorCodeName(code) + " " + detail;
  }
  return "ERROR INTERNAL unreachable";
}

Response Response::ok(double delay_ps, bool timing_error) {
  Response r;
  r.status = ResponseStatus::kOk;
  r.delay_ps = delay_ps;
  r.timing_error = timing_error;
  return r;
}

Response Response::payload(const std::string& text) {
  Response r;
  r.status = ResponseStatus::kOk;
  r.detail = text;
  return r;
}

Response Response::shed(std::string detail) {
  Response r;
  r.status = ResponseStatus::kShed;
  r.detail = std::move(detail);
  return r;
}

Response Response::deadline(std::string detail) {
  Response r;
  r.status = ResponseStatus::kDeadline;
  r.detail = std::move(detail);
  return r;
}

Response Response::error(ErrorCode code, std::string detail) {
  Response r;
  r.status = ResponseStatus::kError;
  r.code = code;
  r.detail = std::move(detail);
  return r;
}

util::Status parseRequest(std::string_view line, Request* out) {
  const std::vector<std::string_view> tokens = tokenize(line);
  if (tokens.empty()) {
    return util::Status::parseError("empty request");
  }
  const std::string_view verb = tokens[0];
  if (verb == "health" || verb == "stats" || verb == "reload") {
    if (tokens.size() != 1) {
      return util::Status::parseError(std::string(verb) +
                                      " takes no arguments");
    }
    out->kind = verb == "health"  ? RequestKind::kHealth
                : verb == "stats" ? RequestKind::kStats
                                  : RequestKind::kReload;
    return util::Status::okStatus();
  }
  const bool is_batch = verb == "predictN";
  if (verb != "predict" && !is_batch) {
    return util::Status::parseError("unknown verb '" + std::string(verb) +
                                    "'");
  }
  // Shared head: <fu> <V> <T> <tclk_ps>, then either the single
  // operand tuple or <n> and n tuples, then an optional deadline.
  if (tokens.size() < (is_batch ? 10u : 9u)) {
    return util::Status::parseError(std::string(verb) +
                                    " is missing arguments, got " +
                                    std::to_string(tokens.size() - 1));
  }
  out->kind = RequestKind::kPredict;
  out->fu = std::string(tokens[1]);
  out->batch.clear();
  struct Field {
    const char* name;
    std::string_view token;
    double* value;
  };
  const Field doubles[] = {
      {"V", tokens[2], &out->voltage},
      {"T", tokens[3], &out->temperature},
      {"tclk_ps", tokens[4], &out->tclk_ps},
  };
  for (const Field& field : doubles) {
    if (!util::parseFiniteDouble(field.token, field.value)) {
      return util::Status::invalidArgument(
          std::string(field.name) + " '" + std::string(field.token) +
          "' is not a finite number");
    }
  }
  std::size_t tuple_count = 1;
  std::size_t tuples_at = 5;  // first tuple token index
  if (is_batch) {
    std::uint32_t n = 0;
    if (!parseWord32(tokens[5], &n)) {
      return util::Status::invalidArgument(
          "n '" + std::string(tokens[5]) + "' is not a batch size");
    }
    if (n == 0) {
      return util::Status::invalidArgument(
          "predictN needs at least one operand tuple");
    }
    if (n > kMaxBatchTuples) {
      return util::Status::invalidArgument(
          "predictN batch of " + std::to_string(n) + " exceeds the cap of " +
          std::to_string(kMaxBatchTuples));
    }
    tuple_count = n;
    tuples_at = 6;
  }
  const std::size_t after_tuples = tuples_at + 4 * tuple_count;
  if (tokens.size() != after_tuples && tokens.size() != after_tuples + 1) {
    return util::Status::invalidArgument(
        std::string(verb) + " expects " + std::to_string(tuple_count) +
        " operand tuple(s) and an optional deadline, got " +
        std::to_string(tokens.size() - tuples_at) + " trailing tokens");
  }
  const char* const tuple_names[] = {"a", "b", "prev_a", "prev_b"};
  for (std::size_t tuple = 0; tuple < tuple_count; ++tuple) {
    BatchOperand operand;
    std::uint32_t* const slots[] = {&operand.a, &operand.b,
                                    &operand.prev_a, &operand.prev_b};
    for (std::size_t w = 0; w < 4; ++w) {
      const std::string_view token = tokens[tuples_at + 4 * tuple + w];
      if (!parseWord32(token, slots[w])) {
        return util::Status::invalidArgument(
            std::string(tuple_names[w]) + " '" + std::string(token) +
            "' in tuple " + std::to_string(tuple) +
            " is not a 32-bit operand");
      }
    }
    out->batch.push_back(operand);
  }
  out->deadline_ms = 0.0;
  if (tokens.size() == after_tuples + 1 &&
      (!util::parseFiniteDouble(tokens[after_tuples], &out->deadline_ms) ||
       out->deadline_ms < 0.0)) {
    return util::Status::invalidArgument(
        "deadline_ms '" + std::string(tokens[after_tuples]) +
        "' is not a finite non-negative number");
  }
  if (out->tclk_ps <= 0.0) {
    return util::Status::invalidArgument("tclk_ps must be > 0");
  }
  return util::Status::okStatus();
}

std::string formatBatchRequest(const std::string& fu, double voltage,
                               double temperature, double tclk_ps,
                               std::span<const BatchOperand> operands,
                               double deadline_ms) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "predictN %s %a %a %a %zu",
                fu.c_str(), voltage, temperature, tclk_ps,
                operands.size());
  std::string line = buf;
  for (const BatchOperand& operand : operands) {
    std::snprintf(buf, sizeof(buf), " %u %u %u %u", operand.a, operand.b,
                  operand.prev_a, operand.prev_b);
    line += buf;
  }
  if (deadline_ms > 0.0) {
    std::snprintf(buf, sizeof(buf), " %a", deadline_ms);
    line += buf;
  }
  return line;
}

Response responseForParseFailure(const util::Status& status) {
  const ErrorCode code = status.code == util::StatusCode::kInvalidArgument
                             ? ErrorCode::kBadRequest
                             : ErrorCode::kParse;
  return Response::error(code, status.message);
}

bool parseResponse(std::string_view line, Response* out) {
  if (line.empty() || line.size() > 2 * kMaxLineBytes) return false;
  const std::vector<std::string_view> tokens = tokenize(line);
  if (tokens.empty()) return false;
  const std::string_view head = tokens[0];
  const auto rest_after = [&](std::size_t n) {
    // Raw remainder after the n-th token (tokens view into `line`, so
    // pointer arithmetic gives the exact offset).
    std::size_t pos = static_cast<std::size_t>(tokens[n - 1].data() -
                                               line.data()) +
                      tokens[n - 1].size();
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) {
      ++pos;
    }
    return std::string(line.substr(pos));
  };
  if (head == "OK") {
    out->status = ResponseStatus::kOk;
    out->code = ErrorCode::kNone;
    if (tokens.size() == 3 && tokens[1].substr(0, 6) == "delay=" &&
        tokens[2].substr(0, 4) == "err=") {
      double delay = 0.0;
      if (!util::parseFiniteDouble(tokens[1].substr(6), &delay)) return false;
      const std::string_view err = tokens[2].substr(4);
      if (err != "0" && err != "1") return false;
      out->delay_ps = delay;
      out->timing_error = err == "1";
      out->detail.clear();
      return true;
    }
    // Control-surface payloads: OK health …, OK stats …, OK reload …
    if (tokens.size() >= 2 &&
        (tokens[1] == "health" || tokens[1] == "stats" ||
         tokens[1] == "reload")) {
      out->detail = rest_after(1);
      return true;
    }
    return false;
  }
  if (head == "SHED" || head == "DEADLINE") {
    if (tokens.size() < 2) return false;
    out->status =
        head == "SHED" ? ResponseStatus::kShed : ResponseStatus::kDeadline;
    out->code = ErrorCode::kNone;
    out->detail = rest_after(1);
    return true;
  }
  if (head == "ERROR") {
    if (tokens.size() < 3) return false;
    out->status = ResponseStatus::kError;
    const std::string_view code = tokens[1];
    bool known = false;
    for (const ErrorCode candidate :
         {ErrorCode::kParse, ErrorCode::kBadRequest, ErrorCode::kOversized,
          ErrorCode::kUnknownFu, ErrorCode::kModelUnavailable,
          ErrorCode::kReloadFailed, ErrorCode::kFaultInjected,
          ErrorCode::kInternal}) {
      if (code == errorCodeName(candidate)) {
        out->code = candidate;
        known = true;
        break;
      }
    }
    if (!known) return false;
    out->detail = rest_after(2);
    return true;
  }
  return false;
}

}  // namespace tevot::serve

#include "serve/protocol.hpp"

#include <cstdio>

#include "util/text_io.hpp"

namespace tevot::serve {

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
  util::TextReader in(line);
  const std::string_view verb = in.word();
  if (verb.empty()) {
    return util::Status::parseError("empty request");
  }
  if (verb == "health" || verb == "stats" || verb == "reload") {
    if (!in.word().empty()) {
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
  // operand tuple or <n> and n tuples, then an optional deadline. A
  // line too short for the head and one tuple is malformed.
  std::string_view head[9];
  const std::size_t head_words = is_batch ? 9 : 8;
  for (std::size_t i = 0; i < head_words; ++i) {
    head[i] = in.word();
    if (head[i].empty()) {
      return util::Status::parseError(std::string(verb) +
                                      " is missing arguments, got " +
                                      std::to_string(i));
    }
  }
  out->kind = RequestKind::kPredict;
  out->fu = std::string(head[0]);
  out->batch.clear();
  struct Field {
    const char* name;
    std::string_view token;
    double* value;
  };
  const Field doubles[] = {
      {"V", head[1], &out->voltage},
      {"T", head[2], &out->temperature},
      {"tclk_ps", head[3], &out->tclk_ps},
  };
  for (const Field& field : doubles) {
    if (!util::parseReal(field.token, field.value)) {
      return util::Status::invalidArgument(
          std::string(field.name) + " '" + std::string(field.token) +
          "' is not a finite number");
    }
  }
  std::size_t tuple_count = 1;
  if (is_batch) {
    if (!util::parseInteger(head[4], &tuple_count)) {
      return util::Status::invalidArgument(
          "n '" + std::string(head[4]) + "' is not a batch size");
    }
    if (tuple_count == 0) {
      return util::Status::invalidArgument(
          "predictN needs at least one operand tuple");
    }
    if (tuple_count > kMaxBatchTuples) {
      return util::Status::invalidArgument(
          "predictN batch of " + std::to_string(tuple_count) +
          " exceeds the cap of " + std::to_string(kMaxBatchTuples));
    }
  }
  out->batch.reserve(tuple_count);
  const std::string_view* const first_tuple = head + head_words - 4;
  const char* const tuple_names[] = {"a", "b", "prev_a", "prev_b"};
  for (std::size_t tuple = 0; tuple < tuple_count; ++tuple) {
    BatchOperand operand;
    std::uint32_t* const slots[] = {&operand.a, &operand.b,
                                    &operand.prev_a, &operand.prev_b};
    for (std::size_t w = 0; w < 4; ++w) {
      const std::string_view token =
          tuple == 0 ? first_tuple[w] : in.word();
      if (token.empty()) {
        return util::Status::invalidArgument(
            std::string(verb) + " expects " + std::to_string(tuple_count) +
            " operand tuple(s), got " + std::to_string(tuple));
      }
      if (!util::parseIntegerOrHex(token, slots[w])) {
        return util::Status::invalidArgument(
            std::string(tuple_names[w]) + " '" + std::string(token) +
            "' in tuple " + std::to_string(tuple) +
            " is not a 32-bit operand");
      }
    }
    out->batch.push_back(operand);
  }
  out->deadline_ms = 0.0;
  if (const std::string_view deadline = in.word();
      !deadline.empty() && (!util::parseReal(deadline, &out->deadline_ms) ||
                            out->deadline_ms < 0.0)) {
    return util::Status::invalidArgument(
        "deadline_ms '" + std::string(deadline) +
        "' is not a finite non-negative number");
  }
  if (!in.word().empty()) {
    return util::Status::invalidArgument(
        std::string(verb) + " expects " + std::to_string(tuple_count) +
        " operand tuple(s) and an optional deadline, got more tokens");
  }
  if (out->tclk_ps <= 0.0) {
    return util::Status::invalidArgument("tclk_ps must be > 0");
  }
  return util::Status::okStatus();
}

namespace {

std::string formatPredictLine(bool batch, const std::string& fu,
                              double voltage, double temperature,
                              double tclk_ps,
                              std::span<const BatchOperand> operands,
                              double deadline_ms) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), " %a %a %a", voltage, temperature,
                tclk_ps);
  // fu is appended, not printed: a NUL in it reaches the server.
  std::string line = (batch ? "predictN " : "predict ") + fu + buf;
  if (batch) {
    // Appended in two steps: GCC 12 at -O2 misreads `" " + string` here
    // as an overlapping memcpy (-Wrestrict), which -Werror builds reject.
    line += ' ';
    line += std::to_string(operands.size());
  }
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

}  // namespace

std::string formatPredictRequest(const std::string& fu, double voltage,
                                 double temperature, double tclk_ps,
                                 const BatchOperand& operand,
                                 double deadline_ms) {
  return formatPredictLine(false, fu, voltage, temperature, tclk_ps,
                           {&operand, 1}, deadline_ms);
}

std::string formatBatchRequest(const std::string& fu, double voltage,
                               double temperature, double tclk_ps,
                               std::span<const BatchOperand> operands,
                               double deadline_ms) {
  return formatPredictLine(true, fu, voltage, temperature, tclk_ps,
                           operands, deadline_ms);
}

Response responseForParseFailure(const util::Status& status) {
  const ErrorCode code = status.code == util::StatusCode::kInvalidArgument
                             ? ErrorCode::kBadRequest
                             : ErrorCode::kParse;
  return Response::error(code, status.message);
}

bool parseResponse(std::string_view line, Response* out) {
  if (line.empty() || line.size() > 2 * kMaxLineBytes) return false;
  util::TextReader in(line);
  const std::string_view head = in.word();
  // The raw rest of the line from `word` on (words view into `line`).
  const auto from = [&](std::string_view word) {
    return std::string(line.substr(static_cast<std::size_t>(
        word.data() - line.data())));
  };
  if (head == "OK") {
    out->status = ResponseStatus::kOk;
    out->code = ErrorCode::kNone;
    const std::string_view first = in.word();
    if (first.starts_with("delay=")) {
      const std::string_view err = in.word();
      if (!util::parseHexDouble(first.substr(6), &out->delay_ps) ||
          (err != "err=0" && err != "err=1") || !in.word().empty()) {
        return false;
      }
      out->timing_error = err == "err=1";
      out->detail.clear();
      return true;
    }
    // Control-surface payloads: OK health …, OK stats …, OK reload …
    if (first == "health" || first == "stats" || first == "reload") {
      out->detail = from(first);
      return true;
    }
    return false;
  }
  if (head == "SHED" || head == "DEADLINE") {
    const std::string_view first = in.word();
    if (first.empty()) return false;
    out->status =
        head == "SHED" ? ResponseStatus::kShed : ResponseStatus::kDeadline;
    out->code = ErrorCode::kNone;
    out->detail = from(first);
    return true;
  }
  if (head == "ERROR") {
    const std::string_view code = in.word();
    const std::string_view first = in.word();
    if (first.empty()) return false;
    out->status = ResponseStatus::kError;
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
    out->detail = from(first);
    return true;
  }
  return false;
}

}  // namespace tevot::serve

// Wire protocol of tevot_serve: newline-delimited text, one request
// per line, exactly one response line per request.
//
// Request grammar (tokens separated by whitespace; lines over
// kMaxLineBytes are rejected with ERROR OVERSIZED; blank lines are
// ignored):
//   predict <fu> <V> <T> <tclk_ps> <a> <b> <prev_a> <prev_b> [deadline_ms]
//   predictN <fu> <V> <T> <tclk_ps> <n> {<a> <b> <prev_a> <prev_b>}*n
//            [deadline_ms]
//   health
//   stats
//   reload
//
// Numbers on the wire follow the util::text_io number rule, each token
// read whole (so "1x", "+1" and " 5" are never a number):
//   - an operand is decimal without a leading zero, or "0x" and hex
//     digits without a leading zero; no sign, at most 2^32-1 ("010"
//     is an error, not octal 8);
//   - n is decimal without a leading zero;
//   - V, T, tclk and the deadline are finite decimals ("0.9", "25",
//     "1e-3") or hexfloats in printf's "%a" spelling ("0x1.9p+4").
//     NaN, infinity, overflow and underflow ("1e-400", which would
//     read as 0, no deadline) are BAD_REQUEST, never a crash or a
//     silent wrong answer;
//   - tclk must be > 0 and the deadline >= 0 (0 = no deadline).
//
// predictN is the batch form: n operand tuples sharing one corner,
// clock, and deadline. n must be in [1, kMaxBatchTuples]; n = 0,
// oversized n, and a malformed tuple anywhere in the batch are one
// BAD_REQUEST for the whole line. Request::responseCount() alone
// decides how many lines answer a line: a line that does not parse
// gets one line, and a line that parses gets exactly responseCount()
// lines in tuple order whatever happens to it afterwards (a shed,
// expired or fault-injected batch yields n SHED/DEADLINE/ERROR lines,
// never silence). A single predict parses to the same Request as
// predictN with n = 1, so both verbs take one path from parse to
// response: TevotModel::predictDelayBatch over the tuples.
//
// Response grammar (always a single line; the first token is the
// response status, the full taxonomy a client must handle):
//   OK delay=<hexfloat ps> err=<0|1>      predict accepted
//   OK health <k=v ...>                   control surface
//   OK stats <k=v ...>
//   OK reload generation=<n> models=<n>
//   SHED <detail>                         load shed (connection limit /
//                                         drain / no eligible shard)
//   DEADLINE <detail>                     per-request deadline exceeded
//   ERROR <CODE> <detail>                 typed failure, see ErrorCode
//
// delay is printed with printf %a (hexfloat), and parseResponse
// accepts only that spelling (util::parseHexDouble), so a client
// recovers the server's double bit-for-bit — the property
// check::checkServeResilience pins against offline evaluation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace tevot::serve {

/// Hard cap on one request line (bytes, newline excluded); longer
/// lines get one ERROR OVERSIZED and are discarded. It holds the
/// longest line formatBatchRequest writes for a served fu: 11,383
/// bytes, with kMaxBatchTuples tuples of 10-digit operands.
inline constexpr std::size_t kMaxLineBytes = 12 * 1024;

/// Cap on predictN tuples per line.
inline constexpr std::size_t kMaxBatchTuples = 256;

enum class RequestKind { kPredict, kHealth, kStats, kReload };

/// One operand tuple of a predict/predictN request.
struct BatchOperand {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t prev_a = 0;
  std::uint32_t prev_b = 0;
};

struct Request {
  RequestKind kind = RequestKind::kPredict;
  std::string fu;            ///< functional-unit name (predict forms)
  double voltage = 0.0;      ///< [V]
  double temperature = 0.0;  ///< [deg C]
  double tclk_ps = 0.0;      ///< clock period to classify against
  double deadline_ms = 0.0;  ///< 0 = no deadline
  /// Operand tuples (kPredict only), size in [1, kMaxBatchTuples]; a
  /// single predict is a batch of one.
  std::vector<BatchOperand> batch;

  /// Lines this request is answered with: one per tuple for kPredict,
  /// 1 otherwise.
  std::size_t responseCount() const {
    return kind == RequestKind::kPredict ? batch.size() : 1;
  }
};

enum class ResponseStatus { kOk, kShed, kDeadline, kError };

/// Typed failure taxonomy carried in ERROR responses.
enum class ErrorCode {
  kNone = 0,
  kParse,             ///< unrecognized verb / wrong arity
  kBadRequest,        ///< recognized shape, invalid operand (NaN, tclk<=0)
  kOversized,         ///< request line over kMaxLineBytes
  kUnknownFu,         ///< fu name outside the known set
  kModelUnavailable,  ///< known fu, but no model loaded for it
  kReloadFailed,      ///< validation failed; previous models kept
  kFaultInjected,     ///< deterministic serve.* injected fault
  kInternal,          ///< unclassified backend exception
};

const char* errorCodeName(ErrorCode code);  ///< "PARSE", …

struct Response {
  ResponseStatus status = ResponseStatus::kOk;
  ErrorCode code = ErrorCode::kNone;
  double delay_ps = 0.0;
  bool timing_error = false;
  /// Human detail for SHED/DEADLINE/ERROR, payload for health/stats.
  std::string detail;

  /// One response line, no trailing newline.
  std::string serialize() const;

  static Response ok(double delay_ps, bool timing_error);
  static Response payload(const std::string& text);  ///< OK + detail
  static Response shed(std::string detail);
  static Response deadline(std::string detail);
  static Response error(ErrorCode code, std::string detail);
};

/// Parses one request line (newline/CR already stripped). On failure
/// returns the ERROR response to send (kParse/kBadRequest), leaving
/// `out` unspecified. Blank lines must be filtered by the caller.
util::Status parseRequest(std::string_view line, Request* out);

/// The request writers: a predict / predictN line, no trailing newline.
/// V/T/tclk and the deadline are printed as hexfloats so the server
/// parses back the caller's doubles bit for bit. deadline_ms <= 0
/// omits the trailing deadline.
std::string formatPredictRequest(const std::string& fu, double voltage,
                                 double temperature, double tclk_ps,
                                 const BatchOperand& operand,
                                 double deadline_ms = 0.0);
std::string formatBatchRequest(const std::string& fu, double voltage,
                               double temperature, double tclk_ps,
                               std::span<const BatchOperand> operands,
                               double deadline_ms = 0.0);

/// Maps a parse failure Status onto the typed wire error.
Response responseForParseFailure(const util::Status& status);

/// Client-side: splits a response line into its typed form. False when
/// the line is not well-formed (the resilience oracle treats that as a
/// violation).
bool parseResponse(std::string_view line, Response* out);

}  // namespace tevot::serve

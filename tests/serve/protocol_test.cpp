// Wire-protocol grammar tests: request parsing (including the abuse
// cases the server must reject with typed errors) and the
// response-line round trip the resilience oracle depends on.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace tevot::serve {
namespace {

TEST(ProtocolTest, ParsesPredict) {
  Request request;
  ASSERT_TRUE(
      parseRequest("predict int_add 0.9 25 300.5 7 0x9 0 4294967295",
                   &request)
          .ok());
  EXPECT_EQ(request.kind, RequestKind::kPredict);
  EXPECT_EQ(request.fu, "int_add");
  EXPECT_DOUBLE_EQ(request.voltage, 0.9);
  EXPECT_DOUBLE_EQ(request.temperature, 25.0);
  EXPECT_DOUBLE_EQ(request.tclk_ps, 300.5);
  // A single predict is a one-tuple batch.
  ASSERT_EQ(request.batch.size(), 1u);
  EXPECT_EQ(request.responseCount(), 1u);
  EXPECT_EQ(request.batch[0].a, 7u);
  EXPECT_EQ(request.batch[0].b, 9u);
  EXPECT_EQ(request.batch[0].prev_a, 0u);
  EXPECT_EQ(request.batch[0].prev_b, 0xffffffffu);
  EXPECT_DOUBLE_EQ(request.deadline_ms, 0.0);
}

TEST(ProtocolTest, ParsesPredictWithDeadlineAndHexfloat) {
  Request request;
  ASSERT_TRUE(
      parseRequest("predict fp_mul 0x1.ccccccccccccdp-1 25 100 1 2 3 4 "
                   "12.5",
                   &request)
          .ok());
  EXPECT_DOUBLE_EQ(request.voltage, 0.9);
  EXPECT_DOUBLE_EQ(request.deadline_ms, 12.5);
}

TEST(ProtocolTest, ParsesFormatBatchRequestBitExactly) {
  const BatchOperand operands[] = {{0, 1, 4294967295u, 42}};
  const double v = 0.9, t = 1.0 / 3.0, tclk = 412.5, deadline = 1e-3;
  Request request;
  ASSERT_TRUE(parseRequest(formatBatchRequest("fp_add", v, t, tclk,
                                              operands, deadline),
                           &request)
                  .ok());
  EXPECT_EQ(request.voltage, v);
  EXPECT_EQ(request.temperature, t);
  EXPECT_EQ(request.tclk_ps, tclk);
  EXPECT_EQ(request.deadline_ms, deadline);
  ASSERT_EQ(request.batch.size(), 1u);
  EXPECT_EQ(request.batch[0].prev_a, 4294967295u);
  EXPECT_EQ(request.batch[0].prev_b, 42u);
  // Decimal and hex operands, decimal and hexfloat reals, any blanks.
  ASSERT_TRUE(parseRequest("predict int_add 9e-1\t0x1.9p+4 300 0xff 0 "
                           "0xFFFFFFFF 10  0x1p-1",
                           &request)
                  .ok());
  EXPECT_EQ(request.temperature, 25.0);
  EXPECT_EQ(request.batch[0].a, 255u);
  EXPECT_EQ(request.batch[0].prev_a, 0xffffffffu);
  EXPECT_EQ(request.deadline_ms, 0.5);
}

TEST(ProtocolTest, ParsesControlVerbs) {
  Request request;
  ASSERT_TRUE(parseRequest("health", &request).ok());
  EXPECT_EQ(request.kind, RequestKind::kHealth);
  ASSERT_TRUE(parseRequest("stats", &request).ok());
  EXPECT_EQ(request.kind, RequestKind::kStats);
  ASSERT_TRUE(parseRequest("  reload  ", &request).ok());
  EXPECT_EQ(request.kind, RequestKind::kReload);
  EXPECT_FALSE(parseRequest("health now", &request).ok());
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  Request request;
  const char* cases[] = {
      "",                                           // empty
      "bogus",                                      // unknown verb
      "predict",                                    // no operands
      "predict int_add 0.9",                        // truncated
      "predict int_add 0.9 25 300 1 2 3",           // 7 args
      "predict int_add 0.9 25 300 1 2 3 4 5 6",     // 10 args
      "predict int_add nan 25 300 1 2 3 4",         // NaN voltage
      "predict int_add 0.9 inf 300 1 2 3 4",        // inf temperature
      "predict int_add 0.9 25 0 1 2 3 4",           // tclk = 0
      "predict int_add 0.9 25 -10 1 2 3 4",         // tclk < 0
      "predict int_add 0.9 25 300 -1 2 3 4",        // negative operand
      "predict int_add 0.9 25 300 4294967296 2 3 4",  // > 32 bits
      "predict int_add 0.9 25 300 1.5 2 3 4",       // non-integer operand
      "predict int_add 0.9x 25 300 1 2 3 4",        // trailing junk
      "predict int_add 0.9 25 300 1 2 3 4 -1",      // negative deadline
      "predict int_add 0.9 25 300 1 2 3 4 nan",     // NaN deadline
      // One number rule: whole tokens, one spelling per value.
      "predict int_add 0.9 25 300 010 2 3 4",       // not octal 8
      "predict int_add 0.9 25 300 0x010 2 3 4",     // leading hex zero
      "predict int_add 0.9 25 300 +1 2 3 4",        // sign on an operand
      "predict int_add 0.9 25 300 0x 2 3 4",        // no hex digits
      "predict int_add 0.9 25 300 0x-1 2 3 4",      // signed hex
      "predict int_add 0.9 25 300 1 2 3 4 1e-400",  // underflows to 0
      "predict int_add 0.9 25 300 1 2 3 4 1e400",   // overflows
      "predict int_add 0x1.80p+0 25 300 1 2 3 4",   // not the %a spelling
      "predict int_add 0.9 +25 300 1 2 3 4",        // sign on T
      "predictN int_add 0.9 25 300 01 1 2 3 4",     // leading zero in n
      "predictN int_add 0.9 25 300 0x1 1 2 3 4",    // n is decimal
  };
  for (const char* line : cases) {
    EXPECT_FALSE(parseRequest(line, &request).ok()) << line;
  }
}

TEST(ProtocolTest, ParseFailureMapsToTypedWireError) {
  Request request;
  const util::Status bad_verb = parseRequest("bogus", &request);
  EXPECT_EQ(responseForParseFailure(bad_verb).code, ErrorCode::kParse);
  const util::Status bad_operand =
      parseRequest("predict int_add nan 25 300 1 2 3 4", &request);
  EXPECT_EQ(responseForParseFailure(bad_operand).code,
            ErrorCode::kBadRequest);
}

TEST(ProtocolTest, OkResponseRoundTripsDelayBitExactly) {
  const double delay = 123.456789012345678;
  const std::string line = Response::ok(delay, true).serialize();
  Response parsed;
  ASSERT_TRUE(parseResponse(line, &parsed));
  EXPECT_EQ(parsed.status, ResponseStatus::kOk);
  EXPECT_TRUE(parsed.timing_error);
  EXPECT_EQ(std::memcmp(&parsed.delay_ps, &delay, sizeof(double)), 0)
      << line;
}

TEST(ProtocolTest, ResponseTaxonomyRoundTrips) {
  Response parsed;
  ASSERT_TRUE(parseResponse(Response::shed("connection limit").serialize(),
                            &parsed));
  EXPECT_EQ(parsed.status, ResponseStatus::kShed);
  EXPECT_EQ(parsed.detail, "connection limit");

  ASSERT_TRUE(parseResponse(Response::deadline("too slow").serialize(),
                            &parsed));
  EXPECT_EQ(parsed.status, ResponseStatus::kDeadline);

  ASSERT_TRUE(parseResponse(
      Response::error(ErrorCode::kModelUnavailable, "int_add down")
          .serialize(),
      &parsed));
  EXPECT_EQ(parsed.status, ResponseStatus::kError);
  EXPECT_EQ(parsed.code, ErrorCode::kModelUnavailable);
  EXPECT_EQ(parsed.detail, "int_add down");

  ASSERT_TRUE(parseResponse(
      Response::payload("health status=serving").serialize(), &parsed));
  EXPECT_EQ(parsed.status, ResponseStatus::kOk);
  EXPECT_EQ(parsed.detail, "health status=serving");
}

TEST(ProtocolTest, RejectsMalformedResponses) {
  Response parsed;
  const char* cases[] = {
      "",
      "OK",                      // predict OK needs delay= err=
      "OK delay=abc err=0",      // unparsable delay
      "OK delay=nan err=0",      // non-finite delay
      "OK delay=0x1p+2 err=2",   // err not 0/1
      "OK delay=4 err=0",        // not the %a spelling the server writes
      "OK delay=0x1.0p+2 err=0",
      "OK delay=0x1p+2 err=0 x", // trailing token
      "OK delay=0x1p+2x err=0",
      "OK something else",       // unknown OK payload
      "SHED",                    // missing detail
      "ERROR",                   // missing code
      "ERROR NO_SUCH_CODE boom", // unknown code
      "ERROR BREAKER_OPEN x",    // no longer emitted or parsed
      "ERROR DRAINING x",        // draining servers answer SHED
      "MAYBE fine",              // unknown status
  };
  for (const char* line : cases) {
    EXPECT_FALSE(parseResponse(line, &parsed)) << "'" << line << "'";
  }
}

}  // namespace
}  // namespace tevot::serve

// Status taxonomy tests: code names and toString are stable (reports
// depend on them), ioErrorFor spells out the path and errno text, and
// statusFromException classifies StatusError / foreign / non-standard
// exceptions as documented.
#include "util/status.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <stdexcept>

namespace tevot::util {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.toString(), "OK");
  EXPECT_TRUE(Status::okStatus().ok());
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(statusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(statusCodeName(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(statusCodeName(StatusCode::kIoError), "IO_ERROR");
  EXPECT_STREQ(statusCodeName(StatusCode::kParseError), "PARSE_ERROR");
  EXPECT_STREQ(statusCodeName(StatusCode::kFaultInjected),
               "FAULT_INJECTED");
  EXPECT_STREQ(statusCodeName(StatusCode::kCancelled), "CANCELLED");
  EXPECT_STREQ(statusCodeName(StatusCode::kInternal), "INTERNAL");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  const Status status = Status::cancelled("stop requested");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code, StatusCode::kCancelled);
  EXPECT_EQ(status.toString(), "CANCELLED: stop requested");
}

TEST(StatusTest, IoErrorForSpellsOutPathAndErrno) {
  const Status status = ioErrorFor("open", "/no/such/file", ENOENT);
  EXPECT_EQ(status.code, StatusCode::kIoError);
  EXPECT_NE(status.message.find("/no/such/file"), std::string::npos);
  EXPECT_NE(status.message.find(errnoText(ENOENT)), std::string::npos);
}

TEST(StatusTest, StatusErrorCarriesStatusInWhat) {
  const StatusError error(Status::ioError("disk on fire"));
  EXPECT_EQ(error.status().code, StatusCode::kIoError);
  EXPECT_STREQ(error.what(), "IO_ERROR: disk on fire");
}

TEST(StatusTest, FromExceptionKeepsStatusErrorTaxonomy) {
  std::exception_ptr caught;
  try {
    throw StatusError(Status::faultInjected("site x"));
  } catch (...) {
    caught = std::current_exception();
  }
  const Status status = statusFromException(caught);
  EXPECT_EQ(status.code, StatusCode::kFaultInjected);
  EXPECT_EQ(status.message, "site x");
}

TEST(StatusTest, FromExceptionDegradesForeignToInternal) {
  std::exception_ptr caught;
  try {
    throw std::out_of_range("index 9");
  } catch (...) {
    caught = std::current_exception();
  }
  const Status status = statusFromException(caught);
  EXPECT_EQ(status.code, StatusCode::kInternal);
  EXPECT_EQ(status.message, "index 9");
}

TEST(StatusTest, FromExceptionHandlesNonStandardThrow) {
  std::exception_ptr caught;
  try {
    throw 42;  // NOLINT: exercising the catch-all classification
  } catch (...) {
    caught = std::current_exception();
  }
  const Status status = statusFromException(caught);
  EXPECT_EQ(status.code, StatusCode::kInternal);
  EXPECT_EQ(status.message, "non-standard exception");
}

TEST(StatusTest, FromExceptionNullIsOk) {
  EXPECT_TRUE(statusFromException(nullptr).ok());
}

}  // namespace
}  // namespace tevot::util

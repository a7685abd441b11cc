// verify::loadCertificate / loadCertificateFile: exact round-trip
// against SafeTclkCertificate::toJson and the typed failure taxonomy
// (kParseError for broken documents, kInvalidArgument for well-formed
// JSON outside the certificate contract, kIoError for file trouble).
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "util/status.hpp"
#include "verify/certificate_io.hpp"
#include "verify/model_rules.hpp"

namespace tevot::verify {
namespace {

SafeTclkCertificate sampleCert() {
  SafeTclkCertificate cert;
  cert.model_path = "models/int_add.model";
  cert.history = true;
  cert.feature_count = 130;
  cert.tree_count = 24;
  cert.v_lo = 0.81;
  cert.v_hi = 1.00;
  cert.t_lo = 0.0;
  cert.t_hi = 100.0;
  cert.tclk_ps = 2161.3456789012345;  // exercise %.17g round-trip
  cert.certified = true;
  cert.bound_lo_ps = 123.456f;
  cert.bound_hi_ps = 2058.75f;
  cert.box_evals = 4096;
  cert.counterexample_json = "";
  return cert;
}

TEST(CertificateIoTest, RoundTripIsBitExact) {
  const SafeTclkCertificate cert = sampleCert();
  SafeTclkCertificate parsed;
  const util::Status status = loadCertificate(cert.toJson(), &parsed);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_EQ(parsed.model_path, cert.model_path);
  EXPECT_EQ(parsed.history, cert.history);
  EXPECT_EQ(parsed.feature_count, cert.feature_count);
  EXPECT_EQ(parsed.tree_count, cert.tree_count);
  EXPECT_EQ(parsed.v_lo, cert.v_lo);
  EXPECT_EQ(parsed.v_hi, cert.v_hi);
  EXPECT_EQ(parsed.t_lo, cert.t_lo);
  EXPECT_EQ(parsed.t_hi, cert.t_hi);
  EXPECT_EQ(parsed.tclk_ps, cert.tclk_ps);  // %.17g: bit-exact
  EXPECT_EQ(parsed.certified, cert.certified);
  EXPECT_EQ(parsed.bound_lo_ps, cert.bound_lo_ps);
  EXPECT_EQ(parsed.bound_hi_ps, cert.bound_hi_ps);
  EXPECT_EQ(parsed.box_evals, cert.box_evals);
  EXPECT_EQ(parsed.counterexample_json, cert.counterexample_json);
  // Parse(write(parse(write(c)))) is a fixed point.
  EXPECT_EQ(parsed.toJson(), cert.toJson());
}

TEST(CertificateIoTest, CounterexampleObjectSurvivesVerbatim) {
  SafeTclkCertificate cert = sampleCert();
  cert.certified = false;
  cert.counterexample_json =
      "{\"voltage\":[0.81,0.82],\"temperature\":[75,100]}";
  SafeTclkCertificate parsed;
  const util::Status status = loadCertificate(cert.toJson(), &parsed);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_EQ(parsed.counterexample_json, cert.counterexample_json);
  EXPECT_FALSE(parsed.certified);
}

TEST(CertificateIoTest, TruncatedAtEveryByteIsNeverHalfParsed) {
  const std::string json = sampleCert().toJson();
  // Any strict prefix must fail typed — never a half-filled cert.
  for (std::size_t cut = 0; cut < json.size(); ++cut) {
    SafeTclkCertificate parsed;
    const util::Status status =
        loadCertificate(json.substr(0, cut), &parsed);
    ASSERT_FALSE(status.ok()) << "prefix of " << cut << " bytes parsed";
    ASSERT_EQ(status.code, util::StatusCode::kParseError)
        << "prefix of " << cut << " bytes: " << status.message;
  }
}

TEST(CertificateIoTest, GarbageIsParseError) {
  SafeTclkCertificate parsed;
  for (const char* garbage :
       {"", "not json", "[1,2,3]", "42", "\"a string\"", "{]"}) {
    const util::Status status = loadCertificate(garbage, &parsed);
    EXPECT_EQ(status.code, util::StatusCode::kParseError) << garbage;
  }
}

TEST(CertificateIoTest, TrailingBytesAreParseError) {
  SafeTclkCertificate parsed;
  const util::Status status =
      loadCertificate(sampleCert().toJson() + " {}", &parsed);
  EXPECT_EQ(status.code, util::StatusCode::kParseError);
  EXPECT_NE(status.message.find("trailing"), std::string::npos)
      << status.message;
}

TEST(CertificateIoTest, DeepNestingIsParseErrorNotACrash) {
  // Before the depth bound, 100,000 '[' overflowed the parser's stack.
  for (const std::size_t depth : {10000u, 100000u}) {
    SafeTclkCertificate parsed;
    const util::Status status =
        loadCertificate(std::string(depth, '['), &parsed);
    EXPECT_EQ(status.code, util::StatusCode::kParseError) << depth;
    EXPECT_NE(status.message.find("nesting"), std::string::npos)
        << status.message;
  }
}

TEST(CertificateIoTest, DuplicateCertifiedKeyIsParseError) {
  // A later "certified":true must not override the first verdict: the
  // DVFS controller would clock adaptively from this document.
  std::string json = sampleCert().toJson();
  const std::string verdict = "\"certified\":true";
  const std::size_t at = json.find(verdict);
  ASSERT_NE(at, std::string::npos) << json;
  json.replace(at, verdict.size(), "\"certified\":false");
  json.insert(json.size() - 1, ",\"certified\":true");
  SafeTclkCertificate parsed;
  const util::Status status = loadCertificate(json, &parsed);
  EXPECT_EQ(status.code, util::StatusCode::kParseError) << json;
  EXPECT_NE(status.message.find("duplicate key 'certified'"),
            std::string::npos)
      << status.message;
}

TEST(CertificateIoTest, MissingFieldIsParseError) {
  // Drop "tclk_ps" — the one field the controller clocks hardware
  // from — by splicing it out of a valid document.
  std::string json = sampleCert().toJson();
  const std::size_t at = json.find(",\"tclk_ps\":");
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = json.find(",\"certified\"", at);
  ASSERT_NE(end, std::string::npos);
  json.erase(at, end - at);
  SafeTclkCertificate parsed;
  const util::Status status = loadCertificate(json, &parsed);
  EXPECT_EQ(status.code, util::StatusCode::kParseError);
  EXPECT_NE(status.message.find("tclk_ps"), std::string::npos)
      << status.message;
}

TEST(CertificateIoTest, MistypedFieldIsParseError) {
  std::string json = sampleCert().toJson();
  const std::size_t at = json.find("\"history\":true");
  ASSERT_NE(at, std::string::npos);
  json.replace(at, std::string("\"history\":true").size(),
               "\"history\":\"yes\"");
  SafeTclkCertificate parsed;
  const util::Status status = loadCertificate(json, &parsed);
  EXPECT_EQ(status.code, util::StatusCode::kParseError);
}

TEST(CertificateIoTest, WrongSchemaIsInvalidArgument) {
  std::string json = sampleCert().toJson();
  const std::size_t at = json.find("certificate-v1");
  ASSERT_NE(at, std::string::npos);
  json.replace(at, std::string("certificate-v1").size(), "certificate-v9");
  SafeTclkCertificate parsed;
  const util::Status status = loadCertificate(json, &parsed);
  EXPECT_EQ(status.code, util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message.find("schema"), std::string::npos)
      << status.message;
}

TEST(CertificateIoTest, NonPositiveTclkIsInvalidArgument) {
  for (const char* bad : {"0", "-1.5"}) {
    SafeTclkCertificate cert = sampleCert();
    std::string json = cert.toJson();
    const std::size_t at = json.find(",\"tclk_ps\":");
    ASSERT_NE(at, std::string::npos);
    const std::size_t value_at = at + std::string(",\"tclk_ps\":").size();
    const std::size_t end = json.find(',', value_at);
    json.replace(value_at, end - value_at, bad);
    SafeTclkCertificate parsed;
    const util::Status status = loadCertificate(json, &parsed);
    EXPECT_EQ(status.code, util::StatusCode::kInvalidArgument) << bad;
  }
}

TEST(CertificateIoTest, InvertedOperatingBoxIsInvalidArgument) {
  SafeTclkCertificate cert = sampleCert();
  cert.v_lo = 1.00;
  cert.v_hi = 0.81;  // the writer will emit the inversion verbatim
  SafeTclkCertificate parsed;
  const util::Status status = loadCertificate(cert.toJson(), &parsed);
  EXPECT_EQ(status.code, util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message.find("voltage"), std::string::npos)
      << status.message;
}

TEST(CertificateIoTest, ZeroTreesIsInvalidArgument) {
  SafeTclkCertificate cert = sampleCert();
  cert.tree_count = 0;
  SafeTclkCertificate parsed;
  const util::Status status = loadCertificate(cert.toJson(), &parsed);
  EXPECT_EQ(status.code, util::StatusCode::kInvalidArgument);
}

TEST(CertificateIoTest, MissingFileIsIoErrorWithPath) {
  const std::string path = ::testing::TempDir() + "/no_such.cert.json";
  SafeTclkCertificate parsed;
  const util::Status status = loadCertificateFile(path, &parsed);
  EXPECT_EQ(status.code, util::StatusCode::kIoError);
  EXPECT_NE(status.message.find(path), std::string::npos)
      << status.message;
}

TEST(CertificateIoTest, FileRoundTripAndErrorNamesPath) {
  const SafeTclkCertificate cert = sampleCert();
  const std::string path = ::testing::TempDir() + "/round_trip.cert.json";
  {
    std::ofstream os(path);
    ASSERT_TRUE(os.good());
    os << cert.toJson() << "\n";  // writer convention: trailing newline
  }
  SafeTclkCertificate parsed;
  const util::Status status = loadCertificateFile(path, &parsed);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_EQ(parsed.toJson(), cert.toJson());

  // A broken file's parse error carries the path for the operator.
  const std::string broken = ::testing::TempDir() + "/broken.cert.json";
  {
    std::ofstream os(broken);
    os << "{\"schema\":";
  }
  const util::Status bad = loadCertificateFile(broken, &parsed);
  EXPECT_EQ(bad.code, util::StatusCode::kParseError);
  EXPECT_NE(bad.message.find(broken), std::string::npos) << bad.message;
}

}  // namespace
}  // namespace tevot::verify

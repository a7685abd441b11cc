// LintReport aggregation and rendering, and the waiver file format:
// severity counts with waivers excluded from the verdict, text/JSON
// renderers, waiver parsing diagnostics, glob matching, and
// unused-waiver tracking.
#include "lint/finding.hpp"
#include "lint/waiver.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace tevot::lint {
namespace {

Finding makeFinding(const char* rule, Severity severity,
                    const char* location, bool waived = false) {
  return Finding{rule, severity, location, "message", waived};
}

TEST(LintReportTest, CountsExcludeWaivedFindings) {
  LintReport report;
  report.design = "d";
  report.findings.push_back(makeFinding("A1", Severity::kError, "x"));
  report.findings.push_back(makeFinding("A1", Severity::kError, "y", true));
  report.findings.push_back(makeFinding("A2", Severity::kWarning, "z"));
  report.findings.push_back(makeFinding("A3", Severity::kInfo, "w"));
  EXPECT_EQ(report.errorCount(), 1u);
  EXPECT_EQ(report.warningCount(), 1u);
  EXPECT_EQ(report.infoCount(), 1u);
  EXPECT_EQ(report.waivedCount(), 1u);
  EXPECT_FALSE(report.clean());
}

TEST(LintReportTest, FullyWaivedReportIsClean) {
  LintReport report;
  report.findings.push_back(makeFinding("A1", Severity::kError, "x", true));
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.errorCount(), 0u);
}

TEST(LintReportTest, TextRenderingShowsFindingsAndSummary) {
  LintReport report;
  report.design = "adder";
  report.rules_run = {"NL001", "NL002"};
  report.findings.push_back(makeFinding("NL001", Severity::kWarning,
                                        "gate:n7"));
  report.findings.back().message = "dangling output";
  report.findings.push_back(makeFinding("NL002", Severity::kError,
                                        "net:cin", true));
  const std::string text = report.toText();
  EXPECT_NE(text.find("lint adder: 2 rules"), std::string::npos) << text;
  EXPECT_NE(text.find("NL001 warning gate:n7: dangling output"),
            std::string::npos) << text;
  EXPECT_NE(text.find("[waived]"), std::string::npos) << text;
  EXPECT_NE(text.find("0 errors, 1 warnings, 0 infos, 1 waived"),
            std::string::npos) << text;
}

/// Member names of a parsed JSON object, in source order.
std::vector<std::string> keysOf(const util::json::Value& object) {
  std::vector<std::string> keys;
  for (const auto& member : object.object) keys.push_back(member.first);
  return keys;
}

util::json::Value parseReport(const LintReport& report) {
  util::json::Value root;
  const util::Status status = util::json::parse(report.toJson(), &root);
  EXPECT_TRUE(status.ok()) << status.message;
  return root;
}

TEST(LintReportTest, JsonRenderingHasStableShape) {
  LintReport report;
  report.design = "adder";
  report.rules_run = {"NL001"};
  report.findings.push_back(makeFinding("NL001", Severity::kWarning,
                                        "gate:n7"));
  const util::json::Value root = parseReport(report);
  EXPECT_EQ(keysOf(root), (std::vector<std::string>{
                              "design", "rules_run", "summary", "findings"}));
  EXPECT_EQ(root.find("design")->text, "adder");
  const util::json::Value& rules = *root.find("rules_run");
  ASSERT_EQ(rules.array.size(), 1u);
  EXPECT_EQ(rules.array[0].text, "NL001");
  const util::json::Value& summary = *root.find("summary");
  EXPECT_EQ(keysOf(summary), (std::vector<std::string>{
                                 "errors", "warnings", "infos", "waived"}));
  EXPECT_EQ(summary.find("errors")->number, 0.0);
  EXPECT_EQ(summary.find("warnings")->number, 1.0);
  EXPECT_EQ(summary.find("infos")->number, 0.0);
  EXPECT_EQ(summary.find("waived")->number, 0.0);
  const util::json::Value& findings = *root.find("findings");
  ASSERT_EQ(findings.array.size(), 1u);
  const util::json::Value& finding = findings.array[0];
  EXPECT_EQ(keysOf(finding),
            (std::vector<std::string>{"rule", "severity", "location",
                                      "waived", "message"}));
  EXPECT_EQ(finding.find("severity")->text, "warning");
  EXPECT_EQ(finding.find("waived")->kind, util::json::Value::Kind::kBool);
  EXPECT_FALSE(finding.find("waived")->boolean);
}

TEST(LintReportTest, EmptyFindingsRenderAsEmptyJsonArray) {
  LintReport report;
  report.design = "d";
  const util::json::Value root = parseReport(report);
  const util::json::Value* findings = root.find("findings");
  ASSERT_NE(findings, nullptr);
  EXPECT_EQ(findings->kind, util::json::Value::Kind::kArray);
  EXPECT_TRUE(findings->array.empty());
}

TEST(SeverityTest, NamesRoundTrip) {
  for (const Severity severity :
       {Severity::kInfo, Severity::kWarning, Severity::kError}) {
    Severity parsed;
    ASSERT_TRUE(severityFromName(severityName(severity), parsed));
    EXPECT_EQ(parsed, severity);
  }
  Severity unused;
  EXPECT_FALSE(severityFromName("fatal", unused));
}

TEST(WaiverTest, ParsesRulesPatternsAndComments) {
  const WaiverSet set = WaiverSet::parseString(
      "# header comment\n"
      "\n"
      "NL004 gate:sum_3\n"
      "NL005 *            # waive the whole rule\n"
      "XA003 gate:mul_*   # reviewed 2026-08\n");
  ASSERT_EQ(set.waivers().size(), 3u);
  EXPECT_EQ(set.waivers()[0].rule, "NL004");
  EXPECT_EQ(set.waivers()[0].pattern, "gate:sum_3");
  EXPECT_EQ(set.waivers()[1].pattern, "*");
  EXPECT_EQ(set.waivers()[1].comment, "waive the whole rule");
  EXPECT_EQ(set.waivers()[2].comment, "reviewed 2026-08");
  EXPECT_EQ(set.waivers()[2].line, 5);
}

TEST(WaiverTest, MalformedLinesAreRejectedWithLineNumber) {
  try {
    WaiverSet::parseString("NL004 a b\n");
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("line 1"), std::string::npos);
  }
  EXPECT_THROW(WaiverSet::parseString("NL001\n"), std::runtime_error);
}

TEST(WaiverTest, MissingFileErrorNamesThePath) {
  try {
    WaiverSet::parseFile("/no/such/waivers.txt");
    FAIL() << "expected open failure";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("/no/such/waivers.txt"),
              std::string::npos);
  }
}

TEST(WaiverTest, PatternMatchingIsExactOrTrailingGlob) {
  EXPECT_TRUE(waiverPatternMatches("gate:n7", "gate:n7"));
  EXPECT_FALSE(waiverPatternMatches("gate:n7", "gate:n71"));
  EXPECT_TRUE(waiverPatternMatches("gate:n7*", "gate:n71"));
  EXPECT_TRUE(waiverPatternMatches("*", "anything"));
  EXPECT_FALSE(waiverPatternMatches("net:*", "gate:n7"));
}

TEST(WaiverTest, MatchingMarksUseAndTracksUnused) {
  WaiverSet set = WaiverSet::parseString(
      "NL004 gate:a\n"
      "NL005 *\n");
  EXPECT_TRUE(
      set.matches(Finding{"NL004", Severity::kInfo, "gate:a", "", false}));
  // Wrong rule: the glob waiver is rule-scoped.
  EXPECT_FALSE(
      set.matches(Finding{"NL004", Severity::kInfo, "gate:b", "", false}));
  const std::vector<Waiver> unused = set.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0].rule, "NL005");
}

}  // namespace
}  // namespace tevot::lint

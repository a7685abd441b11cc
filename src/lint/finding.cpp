#include "lint/finding.hpp"

#include <sstream>

#include "util/json.hpp"

namespace tevot::lint {

std::string_view severityName(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

bool severityFromName(std::string_view name, Severity& severity) {
  if (name == "info") severity = Severity::kInfo;
  else if (name == "warning") severity = Severity::kWarning;
  else if (name == "error") severity = Severity::kError;
  else return false;
  return true;
}

namespace {

std::size_t countSeverity(const std::vector<Finding>& findings,
                          Severity severity) {
  std::size_t n = 0;
  for (const Finding& finding : findings) {
    if (!finding.waived && finding.severity == severity) ++n;
  }
  return n;
}

}  // namespace

std::size_t LintReport::errorCount() const {
  return countSeverity(findings, Severity::kError);
}

std::size_t LintReport::warningCount() const {
  return countSeverity(findings, Severity::kWarning);
}

std::size_t LintReport::infoCount() const {
  return countSeverity(findings, Severity::kInfo);
}

std::size_t LintReport::waivedCount() const {
  std::size_t n = 0;
  for (const Finding& finding : findings) {
    if (finding.waived) ++n;
  }
  return n;
}

std::string LintReport::toText() const {
  std::ostringstream os;
  os << "lint " << design << ": " << rules_run.size() << " rules\n";
  for (const Finding& finding : findings) {
    os << "  " << finding.rule << " " << severityName(finding.severity)
       << (finding.waived ? " [waived]" : "") << " " << finding.location
       << ": " << finding.message << "\n";
  }
  os << "  " << errorCount() << " errors, " << warningCount()
     << " warnings, " << infoCount() << " infos, " << waivedCount()
     << " waived\n";
  return os.str();
}

std::string LintReport::toJson() const {
  util::json::Writer json;
  json.beginObject().field("design", design).key("rules_run").beginArray();
  for (const std::string& rule : rules_run) json.value(rule);
  json.endArray().key("summary").beginObject();
  json.field("errors", errorCount()).field("warnings", warningCount());
  json.field("infos", infoCount()).field("waived", waivedCount());
  json.endObject().key("findings").beginArray();
  for (const Finding& finding : findings) {
    json.beginObject().field("rule", finding.rule);
    json.field("severity", severityName(finding.severity));
    json.field("location", finding.location).field("waived", finding.waived);
    json.field("message", finding.message).endObject();
  }
  return json.endArray().endObject().str();
}

}  // namespace tevot::lint

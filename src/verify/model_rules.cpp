#include "verify/model_rules.hpp"

#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"
#include "verify/interval_engine.hpp"

namespace tevot::verify {

namespace {

using lint::Finding;
using lint::Severity;

std::string formatPs(double ps) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", ps);
  return buf;
}

std::string formatG(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string intervalText(const Interval& v) {
  if (v.isPoint()) return formatG(v.lo);
  return "[" + formatG(v.lo) + ", " + formatG(v.hi) + "]";
}

/// "{V in [...], T in [...], a[3]=1, ...}" — the V/T dimensions plus
/// every dimension narrower than the declared domain, capped so a
/// deeply refined box stays readable.
std::string describeBox(const Box& box, const Box& domain,
                        const core::FeatureEncoder& encoder) {
  constexpr std::size_t kMaxListed = 8;
  std::ostringstream os;
  os << "{";
  std::size_t listed = 0;
  std::size_t elided = 0;
  const std::size_t vt_start = box.size() - 2;
  for (std::size_t i = vt_start; i < box.size(); ++i) {
    if (listed > 0) os << ", ";
    os << encoder.featureName(i) << " in " << intervalText(box[i]);
    ++listed;
  }
  for (std::size_t i = 0; i < vt_start; ++i) {
    if (box[i].lo == domain[i].lo && box[i].hi == domain[i].hi) continue;
    if (listed >= kMaxListed) {
      ++elided;
      continue;
    }
    os << ", " << encoder.featureName(i) << " in " << intervalText(box[i]);
    ++listed;
  }
  if (elided > 0) os << ", +" << elided << " more";
  os << "}";
  return os.str();
}

struct ModelRuleInfo {
  std::string_view id;
  Severity severity;
  std::string_view title;
};

constexpr ModelRuleInfo kModelRules[] = {
    {"MV001", Severity::kWarning, "dead split branch in feature domain"},
    {"MV002", Severity::kWarning, "split threshold outside feature domain"},
    {"MV003", Severity::kWarning, "V/T delay monotonicity certification"},
    {"MV004", Severity::kError, "delay-bound / safe-tclk certification"},
    {"MV005", Severity::kInfo, "training-grid coverage of corner set"},
};

/// Shared read-only state every MV rule works from.
struct VerifyState {
  const core::TevotModel& model;
  const ml::FlatForest& flat;
  const core::FeatureEncoder& encoder;
  Box domain;
  std::size_t v_index = 0;
  std::size_t t_index = 0;
};

std::string nodeLocation(std::size_t tree, std::int32_t node) {
  return "tree:" + std::to_string(tree) + "/node:" + std::to_string(node);
}

void runMv001(const VerifyState& st, const ModelVerifyContext&,
              std::vector<Finding>& findings) {
  for (const DeadBranch& dead : deadBranches(st.flat, st.domain)) {
    findings.push_back(Finding{
        "", Severity::kWarning, nodeLocation(dead.tree, dead.node),
        "split on " + st.encoder.featureName(
                          static_cast<std::size_t>(dead.feature)) +
            " at " + formatG(dead.threshold) + ": " +
            (dead.left_dead ? "left" : "right") +
            " branch is unreachable within the declared feature domain",
        false});
  }
}

void runMv002(const VerifyState& st, const ModelVerifyContext&,
              std::vector<Finding>& findings) {
  // Visit every node, reachable or not — a threshold parked outside
  // the domain is suspicious wherever it sits.
  const std::span<const ml::FlatForest::Node> nodes = st.flat.nodes();
  std::vector<std::int32_t> stack;
  for (std::size_t t = 0; t < st.flat.treeCount(); ++t) {
    stack.push_back(st.flat.roots()[t]);
    while (!stack.empty()) {
      const std::int32_t id = stack.back();
      stack.pop_back();
      const ml::FlatForest::Node& n = nodes[static_cast<std::size_t>(id)];
      if (n.feature < 0) continue;
      stack.push_back(n.left + 1);
      stack.push_back(n.left);
      const Interval dom = st.domain[static_cast<std::size_t>(n.feature)];
      // Split keeps x <= thr left, x > thr right; a threshold below the
      // domain floor or at/above its ceiling decides one way for every
      // in-domain value.
      if (n.threshold >= dom.lo && n.threshold < dom.hi) continue;
      findings.push_back(Finding{
          "", Severity::kWarning, nodeLocation(t, id),
          "split threshold " + formatG(n.threshold) + " on " +
              st.encoder.featureName(static_cast<std::size_t>(n.feature)) +
              " lies outside the declared domain [" + formatG(dom.lo) +
              ", " + formatG(dom.hi) + "]",
          false});
    }
  }
}

void monotoneFinding(const VerifyState& st, const ModelVerifyContext& ctx,
                     std::vector<Finding>& findings, std::size_t feature,
                     Direction direction) {
  const std::string name = st.encoder.featureName(feature);
  const char* want = direction == Direction::kNonIncreasing
                         ? "non-increasing"
                         : "non-decreasing";
  const MonotoneResult res =
      certifyMonotone(st.flat, st.domain, static_cast<std::int32_t>(feature),
                      direction, CertifyOptions{ctx.refine_budget});
  switch (res.verdict) {
    case Verdict::kCertified:
      return;  // certification success is not a finding
    case Verdict::kViolated: {
      const MonotoneCounterexample& ce = *res.counterexample;
      findings.push_back(Finding{
          "", Severity::kWarning, "feature:" + name,
          "predicted delay is not " + std::string(want) + " in " + name +
              ": delay over " + name + " in " + intervalText(ce.low_cell) +
              " is " + formatPs(ce.low_bounds.lo) + ".." +
              formatPs(ce.low_bounds.hi) + " ps vs " +
              formatPs(ce.high_bounds.lo) + ".." +
              formatPs(ce.high_bounds.hi) + " ps over " +
              intervalText(ce.high_cell) + " on " +
              describeBox(ce.box, st.domain, st.encoder) +
              "; every point of that box violates",
          false});
      return;
    }
    case Verdict::kUnknown:
      findings.push_back(Finding{
          "", Severity::kWarning, "feature:" + name,
          std::string(want) + " monotonicity in " + name +
              " not certified within the refinement budget (" +
              std::to_string(res.box_evals) + " box evaluations over " +
              std::to_string(res.cells) + " cells)",
          false});
      return;
  }
}

void runMv003(const VerifyState& st, const ModelVerifyContext& ctx,
              std::vector<Finding>& findings) {
  // Paper Sec. III: delay rises as V drops (MV direction non-increasing
  // in V). The T direction follows the issue's contract; the inverse
  // temperature dependence makes low-voltage T findings expected and
  // waivable rather than fatal — hence warning severity.
  monotoneFinding(st, ctx, findings, st.v_index, Direction::kNonIncreasing);
  monotoneFinding(st, ctx, findings, st.t_index, Direction::kNonDecreasing);
}

void runMv004(const VerifyState& st, const ModelVerifyContext& ctx,
              std::vector<Finding>& findings, ModelVerifyResult& result) {
  SafeTclkCertificate& cert = result.certificate;
  cert.model_path = ctx.model_path;
  cert.history = st.encoder.includeHistory();
  cert.feature_count = st.encoder.featureCount();
  cert.tree_count = st.flat.treeCount();
  cert.v_lo = ctx.grid.v_start;
  cert.v_hi = ctx.grid.v_end;
  cert.t_lo = ctx.grid.t_start;
  cert.t_hi = ctx.grid.t_end;
  cert.tclk_ps = ctx.tclk_ps;

  const ForestBounds global = forestBounds(st.flat, st.domain);
  cert.bound_lo_ps = global.lo;
  cert.bound_hi_ps = global.hi;
  if (!std::isfinite(global.lo) || !std::isfinite(global.hi)) {
    findings.push_back(Finding{
        "", Severity::kError, "-",
        "guaranteed delay bound over the operating box is not finite",
        false});
    return;
  }
  if (global.lo < 0.0f) {
    findings.push_back(Finding{
        "", Severity::kError, "-",
        "guaranteed delay lower bound " + formatPs(global.lo) +
            " ps is negative: the model can predict a negative delay "
            "within the operating box",
        false});
  }
  if (ctx.tclk_ps <= 0.0) return;

  const UpperBoundResult res =
      certifyUpperBound(st.flat, st.domain, static_cast<float>(ctx.tclk_ps),
                        CertifyOptions{ctx.refine_budget});
  cert.box_evals = res.box_evals;
  result.has_certificate = res.verdict != Verdict::kUnknown;
  switch (res.verdict) {
    case Verdict::kCertified:
      cert.certified = true;
      return;
    case Verdict::kViolated: {
      const BoxBounds& ce = *res.counterexample;
      // The box maps feature name -> [lo, hi] for the V/T dimensions
      // and every dimension constrained below the declared domain.
      util::json::Writer json;
      json.beginObject().key("delay_bound_ps").beginObject();
      json.field("min", ce.bounds.lo).field("max", ce.bounds.hi).endObject();
      json.key("box").beginObject();
      for (std::size_t i = 0; i < ce.box.size(); ++i) {
        const bool is_vt = i + 2 >= ce.box.size();
        if (!is_vt && ce.box[i].lo == st.domain[i].lo &&
            ce.box[i].hi == st.domain[i].hi) {
          continue;
        }
        json.key(st.encoder.featureName(i)).beginArray();
        json.value(ce.box[i].lo).value(ce.box[i].hi).endArray();
      }
      cert.counterexample_json = json.endObject().endObject().str();
      findings.push_back(Finding{
          "", Severity::kError, "-",
          "predicted delay exceeds tclk " + formatPs(ctx.tclk_ps) +
              " ps: guaranteed at least " + formatPs(ce.bounds.lo) +
              " ps on " + describeBox(ce.box, st.domain, st.encoder) +
              "; every point of that box violates",
          false});
      return;
    }
    case Verdict::kUnknown:
      findings.push_back(Finding{
          "", Severity::kError, "-",
          "safe-tclk certification against " + formatPs(ctx.tclk_ps) +
              " ps did not converge within the refinement budget (" +
              std::to_string(res.box_evals) + " box evaluations)",
          false});
      return;
  }
}

void runMv005(const VerifyState& st, const ModelVerifyContext& ctx,
              std::vector<Finding>& findings,
              const std::vector<liberty::Corner>& corners) {
  struct Axis {
    std::size_t index;
    const char* name;
    double liberty::Corner::* value;
  };
  const Axis axes[] = {
      {st.v_index, "V", &liberty::Corner::voltage},
      {st.t_index, "T", &liberty::Corner::temperature},
  };
  for (const Axis& axis : axes) {
    const std::vector<float> thresholds =
        featureThresholds(st.flat, static_cast<std::int32_t>(axis.index));
    const std::string loc = std::string("feature:") + axis.name;
    if (thresholds.empty()) {
      findings.push_back(Finding{
          "", Severity::kWarning, loc,
          std::string("model never splits on ") + axis.name +
              ": predicted delay is insensitive to it over the whole grid",
          false});
      continue;
    }
    std::size_t below = 0;
    std::size_t above = 0;
    for (const liberty::Corner& corner : corners) {
      const auto v = static_cast<float>(corner.*(axis.value));
      if (v < thresholds.front()) ++below;
      if (v > thresholds.back()) ++above;
    }
    if (below + above == 0) continue;
    findings.push_back(Finding{
        "", Severity::kInfo, loc,
        std::to_string(below + above) + " of " +
            std::to_string(corners.size()) + " corners fall outside the " +
            axis.name + " split range [" + formatG(thresholds.front()) +
            ", " + formatG(thresholds.back()) + "] (" +
            std::to_string(below) + " below, " + std::to_string(above) +
            " above); predictions there extrapolate the nearest trained "
            "region",
        false});
  }
  (void)ctx;
}

}  // namespace

Box featureDomain(const core::FeatureEncoder& encoder,
                  const core::OperatingGrid& grid) {
  const std::size_t n = encoder.featureCount();
  Box box = Box::uniform(n, Interval{0.0f, 1.0f});
  box[n - 2] = Interval{static_cast<float>(grid.v_start),
                        static_cast<float>(grid.v_end)};
  box[n - 1] = Interval{static_cast<float>(grid.t_start),
                        static_cast<float>(grid.t_end)};
  return box;
}

std::string SafeTclkCertificate::toJson() const {
  util::json::Writer json;
  json.beginObject().field("schema", "tevot-safe-tclk-certificate-v1");
  json.field("model", model_path).field("history", history);
  json.field("features", feature_count).field("trees", tree_count);
  json.key("operating_box").beginObject();
  json.key("voltage").beginArray().value(v_lo).value(v_hi).endArray();
  json.key("temperature").beginArray().value(t_lo).value(t_hi).endArray();
  json.endObject();
  json.field("tclk_ps", tclk_ps).field("certified", certified);
  json.key("delay_bound_ps").beginObject();
  json.field("min", bound_lo_ps).field("max", bound_hi_ps).endObject();
  json.field("box_evals", box_evals).key("counterexample");
  if (counterexample_json.empty()) {
    json.null();
  } else {
    json.raw(counterexample_json);
  }
  return json.endObject().str();
}

lint::Severity modelRuleSeverity(std::string_view id) {
  for (const ModelRuleInfo& rule : kModelRules) {
    if (rule.id == id) return rule.severity;
  }
  throw std::invalid_argument("unknown model rule: " + std::string(id));
}

std::vector<std::string> modelRuleIds() {
  std::vector<std::string> out;
  for (const ModelRuleInfo& rule : kModelRules) {
    out.emplace_back(rule.id);
  }
  return out;
}

ModelVerifyResult runModelVerify(const ModelVerifyContext& ctx,
                                 lint::WaiverSet* waivers) {
  if (ctx.model == nullptr || !ctx.model->trained()) {
    throw std::invalid_argument(
        "runModelVerify: context has no trained model");
  }
  const core::FeatureEncoder& encoder = ctx.model->encoder();
  VerifyState st{*ctx.model, ctx.model->flatForest(), encoder,
                 featureDomain(encoder, ctx.grid),
                 encoder.featureCount() - 2, encoder.featureCount() - 1};
  const std::vector<liberty::Corner> corners =
      ctx.corners.empty() ? ctx.grid.corners() : ctx.corners;

  ModelVerifyResult result;
  result.report.design = ctx.model_path;

  // Mirrors lint::runLint: rules run in catalog order, a throwing rule
  // becomes an error finding, waivers apply per finding, and unused
  // waivers surface as WV001.
  const std::function<void(const ModelRuleInfo&, std::vector<Finding>&)>
      dispatch = [&](const ModelRuleInfo& rule,
                     std::vector<Finding>& findings) {
        if (rule.id == "MV001") runMv001(st, ctx, findings);
        if (rule.id == "MV002") runMv002(st, ctx, findings);
        if (rule.id == "MV003") runMv003(st, ctx, findings);
        if (rule.id == "MV004") runMv004(st, ctx, findings, result);
        if (rule.id == "MV005") runMv005(st, ctx, findings, corners);
      };
  for (const ModelRuleInfo& rule : kModelRules) {
    result.report.rules_run.emplace_back(rule.id);
    std::vector<Finding> findings;
    try {
      dispatch(rule, findings);
      for (Finding& finding : findings) {
        finding.rule = rule.id;
        finding.severity = rule.severity;
      }
    } catch (const std::exception& error) {
      findings.push_back(Finding{std::string(rule.id), Severity::kError, "-",
                                 std::string("rule failed: ") + error.what(),
                                 false});
    }
    for (Finding& finding : findings) {
      if (waivers != nullptr) finding.waived = waivers->matches(finding);
      result.report.findings.push_back(std::move(finding));
    }
  }
  if (waivers != nullptr) {
    for (const lint::Waiver& waiver : waivers->unused()) {
      result.report.findings.push_back(Finding{
          "WV001", Severity::kInfo, waiver.rule + " " + waiver.pattern,
          "waiver (line " + std::to_string(waiver.line) +
              ") matched no finding; remove it",
          false});
    }
  }
  return result;
}

util::Status certifyModelForServing(const core::TevotModel& model) {
  ModelVerifyContext ctx;
  ctx.model = &model;
  ctx.refine_budget = 256;  // admission must stay cheap; unknown != error
  ctx.model_path = "reload-candidate";
  ModelVerifyResult result;
  try {
    result = runModelVerify(ctx);
  } catch (const std::exception& error) {
    return util::Status::invalidArgument(
        std::string("model certification failed to run: ") + error.what());
  }
  if (result.report.errorCount() == 0) return util::Status::okStatus();
  for (const Finding& finding : result.report.findings) {
    if (finding.severity == Severity::kError && !finding.waived) {
      return util::Status::invalidArgument(
          "model failed certification: " + finding.rule + " " +
          finding.location + ": " + finding.message);
    }
  }
  return util::Status::invalidArgument("model failed certification");
}

}  // namespace tevot::verify

#include "check/golden.hpp"

#include <cctype>
#include <sstream>

#include "dta/dta.hpp"
#include "dta/workload.hpp"
#include "util/rng.hpp"

namespace tevot::check {

namespace {

using circuits::fuSlug;

/// 0.90 V / 50 C -> "0v90_50c" (centivolt and whole-degree resolution,
/// matching the grid the specs draw from).
std::string cornerSlug(const liberty::Corner& corner) {
  const int centivolts =
      static_cast<int>(corner.voltage * 100.0 + 0.5);
  const int degrees = static_cast<int>(corner.temperature + 0.5);
  std::ostringstream os;
  os << centivolts / 100 << "v";
  if (centivolts % 100 < 10) os << "0";
  os << centivolts % 100 << "_" << degrees << "c";
  return os.str();
}

}  // namespace

std::vector<GoldenSpec> defaultGoldenSpecs() {
  std::vector<GoldenSpec> specs;
  for (const circuits::FuKind kind : circuits::kAllFus) {
    GoldenSpec spec;
    spec.kind = kind;
    specs.push_back(spec);
  }
  return specs;
}

std::string goldenFileName(const GoldenSpec& spec) {
  return std::string(fuSlug(spec.kind)) + "_" + cornerSlug(spec.corner) +
         ".trace";
}

std::string renderGoldenTrace(core::FuContext& context,
                              const GoldenSpec& spec) {
  util::Rng rng(spec.workload_seed);
  const dta::Workload workload = dta::randomWorkloadFor(
      spec.kind, static_cast<std::size_t>(spec.cycles) + 1, rng);
  const dta::DtaTrace trace = context.characterize(spec.corner, workload);

  std::ostringstream os;
  os.precision(17);  // double round-trip: any delay shift diffs
  os << "tevot-golden v1 " << fuSlug(spec.kind) << " "
     << spec.corner.voltage << " " << spec.corner.temperature << " seed "
     << spec.workload_seed << " cycles " << spec.cycles << "\n";
  os << "# cycle a b prev_a prev_b delay_ps settled_word\n";
  for (std::size_t c = 0; c < trace.samples.size(); ++c) {
    const dta::DtaSample& s = trace.samples[c];
    os << c << " " << s.a << " " << s.b << " " << s.prev_a << " "
       << s.prev_b << " " << s.delay_ps << " " << s.settled_word << "\n";
  }
  return os.str();
}

std::string renderGoldenTrace(const GoldenSpec& spec) {
  core::FuContext context(spec.kind);
  return renderGoldenTrace(context, spec);
}

GoldenDiff compareGoldenTrace(const std::string& expected,
                              const std::string& actual) {
  GoldenDiff diff;
  if (expected == actual) return diff;
  diff.match = false;

  std::istringstream expected_lines(expected);
  std::istringstream actual_lines(actual);
  std::string expected_line, actual_line;
  int line = 0;
  while (true) {
    ++line;
    const bool have_expected =
        static_cast<bool>(std::getline(expected_lines, expected_line));
    const bool have_actual =
        static_cast<bool>(std::getline(actual_lines, actual_line));
    if (!have_expected && !have_actual) break;  // e.g. trailing bytes
    if (!have_expected || !have_actual ||
        expected_line != actual_line) {
      std::ostringstream os;
      os << "first divergence at line " << line << ":\n  expected: "
         << (have_expected ? expected_line : "<end of trace>")
         << "\n  actual:   "
         << (have_actual ? actual_line : "<end of trace>");
      diff.description = os.str();
      return diff;
    }
  }
  diff.description = "traces differ only in trailing bytes";
  return diff;
}

}  // namespace tevot::check

// Golden-trace regression: the committed traces in tests/golden/ must
// match a fresh render exactly (strict byte comparison). Any change to
// the timing library, VT model, simulator semantics, or workload
// generator fails here with a first-divergence diff; regenerate with
// tools/tevot_goldens only when the drift is intended.
#include "check/golden.hpp"

#include <gtest/gtest.h>

#include "util/text_io.hpp"

namespace tevot::check {
namespace {

TEST(GoldenTraceTest, CommittedTracesMatchFreshRender) {
  for (const GoldenSpec& spec : defaultGoldenSpecs()) {
    const std::string path =
        std::string(TEVOT_GOLDEN_DIR) + "/" + goldenFileName(spec);
    std::string expected;
    ASSERT_NO_THROW(expected = util::readFile(path, "golden"))
        << "missing golden " << path
        << " — run tools/tevot_goldens tests/golden";
    const GoldenDiff diff =
        compareGoldenTrace(expected, renderGoldenTrace(spec));
    EXPECT_TRUE(diff.match) << path << ": " << diff.description;
  }
}

TEST(GoldenTraceTest, SpecsCoverEveryFuWithDistinctFiles) {
  const std::vector<GoldenSpec> specs = defaultGoldenSpecs();
  ASSERT_EQ(specs.size(), circuits::kAllFus.size());
  std::vector<std::string> names;
  for (const GoldenSpec& spec : specs) {
    names.push_back(goldenFileName(spec));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
  EXPECT_EQ(names[0], "int_add_0v90_50c.trace");
}

TEST(GoldenTraceTest, CompareReportsFirstDivergence) {
  const GoldenDiff same = compareGoldenTrace("a\nb\n", "a\nb\n");
  EXPECT_TRUE(same.match);

  const GoldenDiff changed = compareGoldenTrace("a\nb\nc\n", "a\nX\nc\n");
  EXPECT_FALSE(changed.match);
  EXPECT_NE(changed.description.find("line 2"), std::string::npos);
  EXPECT_NE(changed.description.find("expected: b"), std::string::npos);

  const GoldenDiff truncated = compareGoldenTrace("a\nb\n", "a\n");
  EXPECT_FALSE(truncated.match);
  EXPECT_NE(truncated.description.find("line 2"), std::string::npos);
  EXPECT_NE(truncated.description.find("<end of trace>"),
            std::string::npos);
}

TEST(GoldenTraceTest, RenderIsDeterministic) {
  GoldenSpec spec;
  spec.kind = circuits::FuKind::kIntAdd;
  spec.cycles = 6;
  EXPECT_EQ(renderGoldenTrace(spec), renderGoldenTrace(spec));
}

}  // namespace
}  // namespace tevot::check

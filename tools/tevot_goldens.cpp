// tevot_goldens — regenerates or verifies the golden DTA traces in
// tests/golden/ (see src/check/golden.hpp for what a trace pins down).
//
//   tevot_goldens <golden-dir>          rewrite every golden trace
//   tevot_goldens <golden-dir> --check  strict comparison; exit 1 and
//                                       print the first divergence per
//                                       trace when anything drifted
//
// Regenerate (and review the diff!) only when a timing-relevant change
// is intentional; CI runs the --check mode.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "check/golden.hpp"
#include "util/text_io.hpp"

int main(int argc, char** argv) {
  bool check_mode = false;
  const char* dir = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check_mode = true;
    } else if (dir == nullptr) {
      dir = argv[i];
    } else {
      dir = nullptr;
      break;
    }
  }
  if (dir == nullptr) {
    std::fprintf(stderr, "usage: tevot_goldens <golden-dir> [--check]\n");
    return 2;
  }

  using namespace tevot;
  bool ok = true;
  try {
    for (const check::GoldenSpec& spec : check::defaultGoldenSpecs()) {
      const std::string path =
          std::string(dir) + "/" + check::goldenFileName(spec);
      const std::string actual = check::renderGoldenTrace(spec);
      if (!check_mode) {
        util::writeFileAtomic(path, "tevot_goldens",
                              [&](util::TextWriter& out) { out.text(actual); });
        std::printf("wrote %s\n", path.c_str());
        continue;
      }
      std::string expected;
      try {
        expected = util::readFile(path, "tevot_goldens");
      } catch (const std::exception& error) {
        std::printf("FAIL %s: %s\n", path.c_str(), error.what());
        ok = false;
        continue;
      }
      const check::GoldenDiff diff =
          check::compareGoldenTrace(expected, actual);
      if (diff.match) {
        std::printf("ok   %s\n", path.c_str());
      } else {
        std::printf("FAIL %s: %s\n", path.c_str(),
                    diff.description.c_str());
        ok = false;
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "tevot_goldens: %s\n", error.what());
    return 1;
  }
  if (check_mode && !ok) {
    std::printf("golden traces drifted; regenerate with "
                "`tevot_goldens %s` only if the change is intended\n",
                dir);
  }
  return ok ? 0 : 1;
}

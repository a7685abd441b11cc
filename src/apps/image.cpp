#include "apps/image.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "util/text_io.hpp"

namespace tevot::apps {

std::uint8_t Image::atClamped(int x, int y) const {
  x = std::clamp(x, 0, width_ - 1);
  y = std::clamp(y, 0, height_ - 1);
  return at(x, y);
}

void writePgm(const std::string& path, const Image& image) {
  util::writeFileAtomic(path, "writePgm", [&](util::TextWriter& out) {
    out.text("P5\n").number(image.width()).text(" ");
    out.number(image.height()).text("\n255\n");
    out.text(std::string_view(
        reinterpret_cast<const char*>(image.pixels().data()),
        image.pixelCount()));
  });
}

double psnrDb(const Image& reference, const Image& candidate) {
  if (reference.width() != candidate.width() ||
      reference.height() != candidate.height() ||
      reference.pixelCount() == 0) {
    throw std::invalid_argument("psnrDb: image shape mismatch");
  }
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < reference.pixelCount(); ++i) {
    const double diff = static_cast<double>(reference.pixels()[i]) -
                        static_cast<double>(candidate.pixels()[i]);
    sum_sq += diff * diff;
  }
  if (sum_sq == 0.0) return std::numeric_limits<double>::infinity();
  const double mse = sum_sq / static_cast<double>(reference.pixelCount());
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

bool isAcceptable(const Image& reference, const Image& candidate) {
  return psnrDb(reference, candidate) >= kAcceptablePsnrDb;
}

}  // namespace tevot::apps

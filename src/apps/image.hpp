// Greyscale image container, PGM I/O and quality metrics.
//
// The application-level evaluation (paper Sec. V-D) scores Sobel /
// Gaussian filter outputs by PSNR against the error-free output and
// classifies each image as acceptable (PSNR >= 30 dB) or not.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tevot::apps {

class Image {
 public:
  Image() = default;
  Image(int width, int height, std::uint8_t fill = 0)
      : width_(width), height_(height),
        pixels_(static_cast<std::size_t>(width) *
                    static_cast<std::size_t>(height),
                fill) {}

  int width() const { return width_; }
  int height() const { return height_; }
  std::size_t pixelCount() const { return pixels_.size(); }

  std::uint8_t at(int x, int y) const {
    return pixels_[index(x, y)];
  }
  void set(int x, int y, std::uint8_t value) {
    pixels_[index(x, y)] = value;
  }

  /// Clamp-to-edge sampling (used by the convolution borders).
  std::uint8_t atClamped(int x, int y) const;

  const std::vector<std::uint8_t>& pixels() const { return pixels_; }
  std::vector<std::uint8_t>& pixels() { return pixels_; }

 private:
  std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(x);
  }

  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> pixels_;
};

/// Writes a binary PGM (P5) through util::writeFileAtomic: the file is
/// whole or absent, and a failure throws util::StatusError.
void writePgm(const std::string& path, const Image& image);

/// Peak signal-to-noise ratio in dB; identical images yield +infinity.
double psnrDb(const Image& reference, const Image& candidate);

/// The paper's acceptability criterion.
inline constexpr double kAcceptablePsnrDb = 30.0;
bool isAcceptable(const Image& reference, const Image& candidate);

}  // namespace tevot::apps

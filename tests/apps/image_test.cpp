// Image container, PGM output, PSNR and synthetic-image tests.
#include "apps/image.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "apps/synth_images.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/text_io.hpp"

namespace tevot::apps {
namespace {

TEST(ImageTest, AccessAndClamping) {
  Image image(4, 3, 7);
  EXPECT_EQ(image.width(), 4);
  EXPECT_EQ(image.height(), 3);
  EXPECT_EQ(image.pixelCount(), 12u);
  EXPECT_EQ(image.at(2, 1), 7);
  image.set(2, 1, 200);
  EXPECT_EQ(image.at(2, 1), 200);
  EXPECT_EQ(image.atClamped(-5, 1), image.at(0, 1));
  EXPECT_EQ(image.atClamped(99, 1), image.at(3, 1));
  EXPECT_EQ(image.atClamped(2, -1), image.at(2, 0));
  EXPECT_EQ(image.atClamped(2, 99), image.at(2, 2));
}

TEST(ImageTest, PgmRoundTrip) {
  Image image(8, 5);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 8; ++x) {
      image.set(x, y, static_cast<std::uint8_t>(x * 30 + y));
    }
  }
  const std::string path = ::testing::TempDir() + "/tevot_img.pgm";
  writePgm(path, image);
  const std::string expected =
      "P5\n8 5\n255\n" +
      std::string(image.pixels().begin(), image.pixels().end());
  EXPECT_EQ(util::readFile(path, "PgmRoundTrip"), expected);
  std::remove(path.c_str());
  // A path that cannot be written is a typed error.
  const std::string missing = ::testing::TempDir() + "/no_such_dir/x.pgm";
  EXPECT_THROW(writePgm(missing, image), util::StatusError);
}

TEST(ImageTest, PsnrSemantics) {
  Image a(10, 10, 100);
  Image b = a;
  EXPECT_TRUE(std::isinf(psnrDb(a, b)));
  EXPECT_TRUE(isAcceptable(a, b));
  // One pixel off by 255 in a 100-pixel image:
  // MSE = 255^2/100 -> PSNR = 10 log10(100) = 20 dB.
  b.set(0, 0, 100 > 127 ? 0 : 255);
  b = a;
  b.set(3, 3, static_cast<std::uint8_t>(100 + 155));
  const double mse = 155.0 * 155.0 / 100.0;
  EXPECT_NEAR(psnrDb(a, b), 10.0 * std::log10(255.0 * 255.0 / mse), 1e-9);
  // Heavy corruption is unacceptable.
  Image c(10, 10, 0);
  Image d(10, 10, 200);
  EXPECT_FALSE(isAcceptable(c, d));
  // Shape mismatch rejected.
  Image e(9, 10);
  EXPECT_THROW(psnrDb(a, e), std::invalid_argument);
}

TEST(SynthImageTest, DeterministicAndDiverse) {
  const Image a = synthImage(123);
  const Image b = synthImage(123);
  EXPECT_EQ(a.pixels(), b.pixels());
  const Image c = synthImage(124);
  EXPECT_NE(a.pixels(), c.pixels());
}

TEST(SynthImageTest, NaturalImageStatistics) {
  // Spatially correlated, wide dynamic range, and real gradients.
  const Image image = synthImage(777);
  util::RunningStats stats;
  double neighbour_diff = 0.0;
  double random_diff = 0.0;
  std::size_t pairs = 0;
  for (int y = 0; y < image.height(); ++y) {
    for (int x = 0; x < image.width(); ++x) {
      stats.add(image.at(x, y));
      if (x + 1 < image.width()) {
        neighbour_diff += std::abs(image.at(x, y) - image.at(x + 1, y));
        const int fx = (x * 7 + 13) % image.width();
        const int fy = (y * 5 + 11) % image.height();
        random_diff += std::abs(image.at(x, y) - image.at(fx, fy));
        ++pairs;
      }
    }
  }
  EXPECT_GT(stats.stddev(), 20.0);  // non-flat
  EXPECT_GT(stats.max() - stats.min(), 100.0);
  // Neighbours are far more similar than random pixel pairs.
  EXPECT_LT(neighbour_diff / pairs, 0.5 * random_diff / pairs);
}

TEST(SynthImageTest, ImageSetRespectsParams) {
  SynthImageParams params;
  params.width = 20;
  params.height = 12;
  const auto images = synthImageSet(5, 99, params);
  ASSERT_EQ(images.size(), 5u);
  for (const Image& image : images) {
    EXPECT_EQ(image.width(), 20);
    EXPECT_EQ(image.height(), 12);
  }
  EXPECT_NE(images[0].pixels(), images[1].pixels());
}

}  // namespace
}  // namespace tevot::apps

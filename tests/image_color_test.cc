#include "image/color.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

namespace fuzzydb {
namespace {

TEST(PaletteTest, RequestedSizeAndDistinctColors) {
  for (size_t k : {2u, 8u, 64u, 100u}) {
    Palette p = Palette::Uniform(k);
    EXPECT_EQ(p.size(), k);
    std::set<std::array<double, 3>> unique;
    for (size_t i = 0; i < k; ++i) {
      unique.insert({p.color(i)[0], p.color(i)[1], p.color(i)[2]});
    }
    EXPECT_EQ(unique.size(), k) << "palette colors must be distinct, k=" << k;
  }
}

TEST(PaletteTest, ColorsInsideRgbCube) {
  Rng rng(431);
  Palette p = Palette::Uniform(64, &rng);
  for (size_t i = 0; i < p.size(); ++i) {
    for (double ch : p.color(i)) {
      EXPECT_GE(ch, 0.0);
      EXPECT_LE(ch, 1.0);
    }
  }
}

TEST(PaletteTest, NearestFindsExactColor) {
  Palette p = Palette::Uniform(27);
  for (size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p.Nearest(p.color(i)), i);
  }
}

TEST(RgbDistanceTest, MetricBasics) {
  Rgb a{0, 0, 0}, b{1, 1, 1};
  EXPECT_DOUBLE_EQ(RgbDistance(a, a), 0.0);
  EXPECT_NEAR(RgbDistance(a, b), std::sqrt(3.0), 1e-12);
  EXPECT_DOUBLE_EQ(RgbDistance(a, b), RgbDistance(b, a));
}

TEST(HistogramTest, ValidateAndNormalize) {
  EXPECT_FALSE(ValidateHistogram({}).ok());
  EXPECT_FALSE(ValidateHistogram({0.5, 0.4}).ok());  // mass 0.9
  EXPECT_FALSE(ValidateHistogram({1.5, -0.5}).ok());
  EXPECT_TRUE(ValidateHistogram({0.25, 0.75}).ok());
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    Status status = ValidateHistogram({bad, 1.0});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
  }

  Result<Histogram> norm = NormalizeHistogram({2.0, 6.0});
  ASSERT_TRUE(norm.ok());
  EXPECT_DOUBLE_EQ((*norm)[0], 0.25);
  EXPECT_FALSE(NormalizeHistogram({0.0, 0.0}).ok());
  EXPECT_FALSE(NormalizeHistogram({-1.0, 2.0}).ok());
}

TEST(RandomHistogramTest, ProducesValidStructuredHistograms) {
  Rng rng(433);
  for (int i = 0; i < 50; ++i) {
    Histogram h = RandomHistogram(&rng, 64, 3, 0.1);
    EXPECT_TRUE(ValidateHistogram(h).ok());
    // Peak structure: the largest bin should dominate the uniform noise
    // floor of 0.1/64.
    double max_bin = *std::max_element(h.begin(), h.end());
    EXPECT_GT(max_bin, 0.05);
  }
}

TEST(TargetHistogramTest, ConcentratesOnNearestBin) {
  Palette p = Palette::Uniform(64);
  Rgb red{1.0, 0.0, 0.0};
  Histogram h = TargetHistogram(p, red, 0.2);
  EXPECT_TRUE(ValidateHistogram(h).ok());
  size_t center = p.Nearest(red);
  EXPECT_DOUBLE_EQ(h[center], 0.8);
  // Zero spread puts all mass on one bin.
  Histogram pure = TargetHistogram(p, red, 0.0);
  EXPECT_DOUBLE_EQ(pure[center], 1.0);
}

TEST(HistogramDistanceTest, L1AndIntersectionDuality) {
  Rng rng(439);
  for (int i = 0; i < 100; ++i) {
    Histogram x = RandomHistogram(&rng, 16);
    Histogram y = RandomHistogram(&rng, 16);
    double l1 = HistogramL1Distance(x, y);
    double inter = HistogramIntersection(x, y);
    EXPECT_GE(l1, 0.0);
    EXPECT_LE(l1, 2.0 + 1e-12);
    EXPECT_GE(inter, 0.0);
    EXPECT_LE(inter, 1.0 + 1e-12);
    // For unit-mass histograms: intersection = 1 - L1/2.
    EXPECT_NEAR(inter, 1.0 - l1 / 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(HistogramL1Distance(x, x), 0.0);
    EXPECT_NEAR(HistogramIntersection(x, x), 1.0, 1e-12);
  }
}

TEST(HistogramDistanceTest, L1IsBlindToCrossBinSimilarity) {
  // Moving mass to a NEARBY color and to a FAR color cost the same under
  // L1 — the defect the quadratic form repairs (paper §2).
  Histogram base(8, 0.0), near(8, 0.0), far(8, 0.0);
  base[0] = 1.0;
  near[1] = 1.0;
  far[7] = 1.0;
  EXPECT_DOUBLE_EQ(HistogramL1Distance(base, near),
                   HistogramL1Distance(base, far));
}

TEST(AverageColorTest, MatchesWeightedSum) {
  Palette p = Palette::Uniform(8);
  Histogram h(8, 0.0);
  h[0] = 0.5;
  h[7] = 0.5;
  Rgb avg = AverageColor(p, h);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(avg[c], 0.5 * (p.color(0)[c] + p.color(7)[c]), 1e-12);
  }
}

}  // namespace
}  // namespace fuzzydb

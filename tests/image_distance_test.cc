// Quadratic-form distance (paper formula (1)): metric sanity and PSD
// structure. The distance-bounding filter (formula (2)) over its eigen
// embedding is tested in image_embedding_test.

#include <gtest/gtest.h>

#include "image/quadratic_distance.h"

namespace fuzzydb {
namespace {

class QfdTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    Rng rng(439);
    palette_ = Palette::Uniform(GetParam(), &rng);
    Result<QuadraticFormDistance> qfd =
        QuadraticFormDistance::Create(palette_);
    ASSERT_TRUE(qfd.ok()) << qfd.status().ToString();
    qfd_ = std::move(*qfd);
  }

  Palette palette_;
  QuadraticFormDistance qfd_;
};

TEST_P(QfdTest, SimilarityMatrixIsSymmetricWithUnitDiagonal) {
  const Matrix& a = qfd_.similarity();
  EXPECT_TRUE(a.IsSymmetric());
  for (size_t i = 0; i < a.rows(); ++i) {
    EXPECT_DOUBLE_EQ(a.At(i, i), 1.0);
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_GE(a.At(i, j), -1e-12);
      EXPECT_LE(a.At(i, j), 1.0 + 1e-12);
    }
  }
}

TEST_P(QfdTest, CenteredMatrixIsPositiveSemidefinite) {
  // All eigenvalues of B = P A P must be >= 0: the distance is well-defined
  // on histogram differences.
  for (double lambda : qfd_.eigenvalues()) {
    EXPECT_GE(lambda, 0.0);
  }
  EXPECT_GT(qfd_.eigenvalues().front(), 0.0);
}

TEST_P(QfdTest, DistanceIsAPseudometricOnHistograms) {
  Rng rng(443);
  const size_t k = GetParam();
  for (int i = 0; i < 30; ++i) {
    Histogram x = RandomHistogram(&rng, k);
    Histogram y = RandomHistogram(&rng, k);
    Histogram z = RandomHistogram(&rng, k);
    EXPECT_NEAR(qfd_.Distance(x, x), 0.0, 1e-9);
    EXPECT_NEAR(qfd_.Distance(x, y), qfd_.Distance(y, x), 1e-12);
    EXPECT_GE(qfd_.Distance(x, y), 0.0);
    // Triangle inequality holds because d is a seminorm of the difference.
    EXPECT_LE(qfd_.Distance(x, z),
              qfd_.Distance(x, y) + qfd_.Distance(y, z) + 1e-9);
  }
}

TEST_P(QfdTest, MaxDistanceBoundsAllPairs) {
  Rng rng(449);
  const size_t k = GetParam();
  for (int i = 0; i < 100; ++i) {
    Histogram x = RandomHistogram(&rng, k, 1, 0.0);  // extreme: single peak
    Histogram y = RandomHistogram(&rng, k, 1, 0.0);
    EXPECT_LE(qfd_.Distance(x, y), qfd_.MaxDistance() + 1e-9);
  }
}

TEST_P(QfdTest, SimilarColorsAreCloserThanDissimilarOnes) {
  // A histogram concentrated on one bin should be closer to one
  // concentrated on that bin's nearest neighbour than to the farthest bin.
  const size_t k = GetParam();
  size_t i = 0;
  size_t nearest = 0, farthest = 0;
  double dn = 1e9, df = -1.0;
  for (size_t j = 1; j < k; ++j) {
    double d = RgbDistance(palette_.color(i), palette_.color(j));
    if (d < dn) {
      dn = d;
      nearest = j;
    }
    if (d > df) {
      df = d;
      farthest = j;
    }
  }
  Histogram hi(k, 0.0), hn(k, 0.0), hf(k, 0.0);
  hi[i] = 1.0;
  hn[nearest] = 1.0;
  hf[farthest] = 1.0;
  EXPECT_LT(qfd_.Distance(hi, hn), qfd_.Distance(hi, hf));
}

INSTANTIATE_TEST_SUITE_P(BinCounts, QfdTest,
                         ::testing::Values(8, 27, 64),
                         [](const auto& info) {
                           // append, not operator+(const char*, string&&):
                           // gcc 12 -Wrestrict misfires on the latter.
                           std::string name = "k";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(ExactKnnTest, SortsByDistanceThenIndexAndClampsK) {
  // Repeated histograms make most distances ties; the reference scan must
  // order them by index.
  Rng rng(479);
  Palette palette = Palette::Uniform(27, &rng);
  QuadraticFormDistance qfd = *QuadraticFormDistance::Create(palette);
  std::vector<Histogram> db;
  for (int i = 0; i < 60; ++i) {
    db.push_back(i < 4 ? RandomHistogram(&rng, 27) : db[i % 4]);
  }
  std::vector<std::pair<size_t, double>> all = ExactKnn(qfd, db, db[1], 100);
  ASSERT_EQ(all.size(), db.size());  // k clamps to the database size
  EXPECT_EQ(all[0], std::make_pair(size_t{1}, 0.0));
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(std::pair(all[i - 1].second, all[i - 1].first),
              std::pair(all[i].second, all[i].first))
        << "rank " << i;
  }
  EXPECT_TRUE(ExactKnn(qfd, db, db[1], 0).empty());
}

}  // namespace
}  // namespace fuzzydb

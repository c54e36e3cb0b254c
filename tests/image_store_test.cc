#include "image/image_store.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "image/precompute.h"

namespace fuzzydb {
namespace {

ImageStoreOptions SmallOptions() {
  ImageStoreOptions options;
  options.num_images = 60;
  options.palette_size = 27;
  options.seed = 99;
  return options;
}

TEST(ImageStoreTest, GeneratesRequestedCollection) {
  Result<ImageStore> store = ImageStore::Generate(SmallOptions());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->size(), 60u);
  EXPECT_EQ(store->palette().size(), 27u);
  for (const ImageRecord& rec : store->images()) {
    EXPECT_TRUE(ValidateHistogram(rec.histogram).ok());
    EXPECT_GT(rec.shape.Area(), 0.0);
  }
}

TEST(ImageStoreTest, TurningTableHoldsEveryCentredShape) {
  Result<ImageStore> store = ImageStore::Generate(SmallOptions());
  ASSERT_TRUE(store.ok());
  const TurningTable& table = store->turning_table();
  ASSERT_EQ(table.size(), store->size());
  ASSERT_EQ(table.samples(), 64u);
  std::vector<double> out(64);
  for (size_t i = 0; i < store->size(); ++i) {
    std::vector<double> want = TurningFunction(store->image(i).shape, 64);
    Centre(want);
    table.Expand(i, out.data());
    EXPECT_EQ(std::memcmp(out.data(), want.data(), 64 * sizeof(double)), 0)
        << "image " << i;
  }
}

TEST(ImageStoreTest, GenerationIsDeterministicInSeed) {
  Result<ImageStore> a = ImageStore::Generate(SmallOptions());
  Result<ImageStore> b = ImageStore::Generate(SmallOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(a->image(i).histogram, b->image(i).histogram);
  }
  ImageStoreOptions other = SmallOptions();
  other.seed = 100;
  Result<ImageStore> c = ImageStore::Generate(other);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->image(0).histogram, c->image(0).histogram);
}

TEST(ImageStoreTest, FindById) {
  ImageStoreOptions options = SmallOptions();
  options.first_id = 1000;
  Result<ImageStore> store = ImageStore::Generate(options);
  ASSERT_TRUE(store.ok());
  Result<const ImageRecord*> rec = store->Find(1010);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)->id, 1010u);
  EXPECT_FALSE(store->Find(999).ok());
  EXPECT_FALSE(store->Find(1060).ok());
}

TEST(ImageStoreTest, ColorGradeInUnitIntervalAndReflexive) {
  Result<ImageStore> store = ImageStore::Generate(SmallOptions());
  ASSERT_TRUE(store.ok());
  const Histogram& target = store->image(0).histogram;
  EXPECT_NEAR(store->ColorGrade(target, target), 1.0, 1e-9);
  for (const ImageRecord& rec : store->images()) {
    double g = store->ColorGrade(rec.histogram, target);
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, 1.0);
  }
}

TEST(ImageStoreTest, RejectsBadOptions) {
  ImageStoreOptions bad = SmallOptions();
  bad.num_images = 0;
  EXPECT_FALSE(ImageStore::Generate(bad).ok());
  bad = SmallOptions();
  bad.palette_size = 1;
  EXPECT_FALSE(ImageStore::Generate(bad).ok());
  bad = SmallOptions();
  bad.min_shape_vertices = 2;
  EXPECT_FALSE(ImageStore::Generate(bad).ok());
  bad = SmallOptions();
  bad.max_shape_vertices = 2;
  EXPECT_FALSE(ImageStore::Generate(bad).ok());
}

TEST(PrecomputeTest, CacheAgreesWithDirectComputation) {
  Result<ImageStore> store = ImageStore::Generate(SmallOptions());
  ASSERT_TRUE(store.ok());
  Result<PairwiseDistanceCache> cache = PairwiseDistanceCache::Build(*store);
  ASSERT_TRUE(cache.ok());
  const QuadraticFormDistance& qfd = store->color_distance();
  for (size_t i = 0; i < store->size(); i += 7) {
    for (size_t j = 0; j < store->size(); j += 11) {
      double direct =
          qfd.Distance(store->image(i).histogram, store->image(j).histogram);
      // The cache is built through the eigen-space embedding kernel, which
      // agrees with the quadratic form up to eigensolver roundoff.
      EXPECT_NEAR(cache->Distance(i, j), direct, 1e-9);
    }
  }
  EXPECT_DOUBLE_EQ(cache->Distance(5, 5), 0.0);
  EXPECT_DOUBLE_EQ(cache->Distance(3, 9), cache->Distance(9, 3));
}

TEST(PrecomputeTest, NearestMatchesBruteForce) {
  Result<ImageStore> store = ImageStore::Generate(SmallOptions());
  ASSERT_TRUE(store.ok());
  Result<PairwiseDistanceCache> cache = PairwiseDistanceCache::Build(*store);
  ASSERT_TRUE(cache.ok());
  std::vector<std::pair<size_t, double>> nn = cache->Nearest(0, 5);
  ASSERT_EQ(nn.size(), 5u);
  for (size_t i = 1; i < nn.size(); ++i) {
    EXPECT_GE(nn[i].second, nn[i - 1].second);
  }
  // The closest neighbour must beat (or tie) every other object.
  for (size_t j = 1; j < store->size(); ++j) {
    EXPECT_GE(cache->Distance(0, j), nn[0].second - 1e-12);
  }
  // k larger than the collection clamps.
  EXPECT_EQ(cache->Nearest(0, 500).size(), store->size() - 1);
}

TEST(PrecomputeTest, RequiresAtLeastTwoImages) {
  ImageStoreOptions one = SmallOptions();
  one.num_images = 1;
  Result<ImageStore> store = ImageStore::Generate(one);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(PairwiseDistanceCache::Build(*store).ok());
}

}  // namespace
}  // namespace fuzzydb

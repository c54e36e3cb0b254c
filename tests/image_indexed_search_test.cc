// Tests for the incremental R-tree nearest iterator and the GEMINI
// filter-and-refine pipeline (paper §2.1's "multidimensional index on short
// color vectors").

#include "image/indexed_search.h"

#include <gtest/gtest.h>

namespace fuzzydb {
namespace {

TEST(NearestIteratorTest, StreamsInAscendingDistanceOrder) {
  Rng rng(961);
  RTree tree(3);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> p{rng.NextDouble(), rng.NextDouble(),
                          rng.NextDouble()};
    ASSERT_TRUE(tree.Insert(i, p).ok());
  }
  std::vector<double> query{0.5, 0.5, 0.5};
  RTree::NearestIterator it(&tree, query);
  double prev = -1.0;
  size_t count = 0;
  while (auto next = it.Next()) {
    EXPECT_GE(next->distance, prev - 1e-12);
    prev = next->distance;
    ++count;
  }
  EXPECT_EQ(count, 500u);
  EXPECT_FALSE(it.Next().has_value());  // stays exhausted
}

TEST(NearestIteratorTest, PrefixMatchesBatchKnn) {
  Rng rng(967);
  RTree tree(2);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> p{rng.NextDouble(), rng.NextDouble()};
    ASSERT_TRUE(tree.Insert(i, p).ok());
  }
  std::vector<double> query{0.3, 0.7};
  Result<std::vector<KnnNeighbor>> batch = tree.Knn(query, 20, nullptr);
  ASSERT_TRUE(batch.ok());
  RTree::NearestIterator it(&tree, query);
  for (size_t i = 0; i < 20; ++i) {
    std::optional<KnnNeighbor> next = it.Next();
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->id, (*batch)[i].id) << "rank " << i;
    EXPECT_NEAR(next->distance, (*batch)[i].distance, 1e-12);
  }
}

TEST(NearestIteratorTest, LazyIterationTouchesFewNodes) {
  Rng rng(971);
  RTree tree(2);
  for (int i = 0; i < 5000; ++i) {
    std::vector<double> p{rng.NextDouble(), rng.NextDouble()};
    ASSERT_TRUE(tree.Insert(i, p).ok());
  }
  RTree::NearestIterator it(&tree, std::vector<double>{0.5, 0.5});
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(it.Next().has_value());
  // First few neighbours must not require most of the tree.
  EXPECT_LT(it.stats().distance_computations, 1000u);
}

class GeminiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(977);
    palette_ = Palette::Uniform(64, &rng);
    qfd_ = *QuadraticFormDistance::Create(palette_);
    for (int i = 0; i < 600; ++i) {
      db_.push_back(RandomHistogram(&rng, 64));
    }
  }

  Palette palette_;
  QuadraticFormDistance qfd_;
  std::vector<Histogram> db_;
};

TEST_F(GeminiTest, BuildValidates) {
  EXPECT_FALSE(GeminiIndex::Build(nullptr, 3, &db_).ok());
  EXPECT_FALSE(GeminiIndex::Build(&qfd_, 3, nullptr).ok());
  std::vector<Histogram> empty;
  EXPECT_FALSE(GeminiIndex::Build(&qfd_, 3, &empty).ok());
  EXPECT_EQ(GeminiIndex::Build(&qfd_, 0, &db_).status().code(),
            StatusCode::kInvalidArgument);
  // The summary dimension clamps to the embedding dimension.
  Result<GeminiIndex> wide = GeminiIndex::Build(&qfd_, 1000, &db_);
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->summary_dim(), 64u);
  EXPECT_EQ(wide->size(), db_.size());
}

TEST_F(GeminiTest, KnnMatchesExactSearch) {
  Result<GeminiIndex> index = GeminiIndex::Build(&qfd_, 3, &db_);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  Rng rng(983);
  for (int q = 0; q < 8; ++q) {
    Histogram target = RandomHistogram(&rng, 64);
    CascadeStats stats;
    Result<std::vector<std::pair<size_t, double>>> got =
        index->Knn(target, 10, &stats);
    ASSERT_TRUE(got.ok());
    std::vector<std::pair<size_t, double>> expected =
        ExactKnn(qfd_, db_, target, 10);
    ASSERT_EQ(got->size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*got)[i].first, expected[i].first) << "rank " << i;
      // GEMINI refines in embedded space; ExactKnn evaluates the quadratic
      // form — the two agree up to eigensolver roundoff.
      EXPECT_NEAR((*got)[i].second, expected[i].second, 1e-9);
    }
    // Refinement must touch well under the whole database.
    EXPECT_LT(stats.full_distance_computations, db_.size() / 2);
    // Every candidate that entered refinement is accounted for: the pruned
    // ones (abandoned mid-row) used to vanish from the cost tables.
    EXPECT_GE(stats.candidates_refined, stats.full_distance_computations);
    EXPECT_LE(stats.candidates_refined, stats.bound_computations);
  }
  EXPECT_FALSE(index->Knn(db_[0], 0).ok());
}

TEST_F(GeminiTest, KLargerThanDatabaseClamps) {
  Result<GeminiIndex> index = GeminiIndex::Build(&qfd_, 2, &db_);
  ASSERT_TRUE(index.ok());
  Result<std::vector<std::pair<size_t, double>>> all =
      index->Knn(db_[0], 10000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), db_.size());
  // Self-query ranks itself first with distance ~0.
  EXPECT_EQ((*all)[0].first, 0u);
  EXPECT_NEAR((*all)[0].second, 0.0, 1e-9);
}

TEST_F(GeminiTest, AgreesWithTheFlatFilterAndDoesLessSummaryWork) {
  Result<GeminiIndex> index = GeminiIndex::Build(&qfd_, 3, &db_);
  ASSERT_TRUE(index.ok());
  Rng rng(991);
  Histogram target = RandomHistogram(&rng, 64);
  // The flat two-level filter over the same 3-dim summaries.
  CascadeStats flat_stats, gemini_stats;
  auto flat = index->embeddings().CascadeKnn(
      qfd_.Embed(target), 10,
      {.prefix_dim = 3, .use_quantized = false}, &flat_stats);
  auto via_index = index->Knn(target, 10, &gemini_stats);
  ASSERT_TRUE(via_index.ok());
  ASSERT_EQ(flat.size(), via_index->size());
  for (size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i].first, (*via_index)[i].first);
  }
  // The flat filter bounds every database object per query; the index
  // visits only part of the summary space.
  EXPECT_EQ(flat_stats.bound_computations, db_.size());
  EXPECT_LT(gemini_stats.bound_computations, db_.size());
  EXPECT_GE(gemini_stats.candidates_refined,
            gemini_stats.full_distance_computations);
}

}  // namespace
}  // namespace fuzzydb

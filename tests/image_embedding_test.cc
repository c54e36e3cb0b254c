// The eigen-space embedding layer: embedded Euclidean distance must agree
// with the quadratic form Matrix::QuadraticForm to 1e-9, every prefix of an
// embedding must lower-bound the full distance, and the cascaded filter
// must return exactly the same top-k (indices, order, distances) as the
// batched exact kernel — including under duplicates and degenerate
// palettes.

#include "image/embedding_store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <string>

#include "image/image_store.h"
#include "tests/cascade_reference.h"

namespace fuzzydb {
namespace {

std::vector<Histogram> RandomDatabase(Rng* rng, size_t n, size_t bins) {
  std::vector<Histogram> db;
  db.reserve(n);
  for (size_t i = 0; i < n; ++i) db.push_back(RandomHistogram(rng, bins));
  return db;
}

TEST(EmbeddingTest, EmbeddedDistanceMatchesQuadraticForm) {
  Rng rng(1009);
  for (size_t bins : {8u, 27u, 64u}) {
    Palette palette = Palette::Uniform(bins, &rng);
    QuadraticFormDistance qfd = *QuadraticFormDistance::Create(palette);
    for (int trial = 0; trial < 50; ++trial) {
      Histogram x = RandomHistogram(&rng, bins);
      Histogram y = RandomHistogram(&rng, bins);
      std::vector<double> z(bins);
      for (size_t i = 0; i < bins; ++i) z[i] = x[i] - y[i];
      double reference =
          std::sqrt(std::max(qfd.similarity().QuadraticForm(z), 0.0));
      double embedded = EuclideanDistance(qfd.Embed(x), qfd.Embed(y));
      EXPECT_NEAR(embedded, reference, 1e-9) << "bins " << bins;
      EXPECT_NEAR(embedded, qfd.Distance(x, y), 1e-9) << "bins " << bins;
    }
  }
}

TEST(EmbeddingTest, EveryPrefixLowerBoundsTheDistance) {
  Rng rng(1013);
  Palette palette = Palette::Uniform(64, &rng);
  QuadraticFormDistance qfd = *QuadraticFormDistance::Create(palette);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> ex = qfd.Embed(RandomHistogram(&rng, 64));
    std::vector<double> ey = qfd.Embed(RandomHistogram(&rng, 64));
    double full = 0.0;
    for (size_t j = 0; j < 64; ++j) {
      double diff = ex[j] - ey[j];
      full += diff * diff;
    }
    double partial = 0.0;
    for (size_t j = 0; j < 64; ++j) {
      double diff = ex[j] - ey[j];
      partial += diff * diff;
      // Partial sums are nondecreasing and never exceed the full squared
      // distance: formula (2) at every prefix length.
      EXPECT_LE(partial, full + 1e-12);
    }
    EXPECT_NEAR(partial, full, 1e-12);
  }
}

TEST(EmbeddingTest, BatchDistancesMatchesPairwiseDistances) {
  Rng rng(1019);
  Palette palette = Palette::Uniform(27, &rng);
  QuadraticFormDistance qfd = *QuadraticFormDistance::Create(palette);
  std::vector<Histogram> db = RandomDatabase(&rng, 100, 27);
  EmbeddingStore store = *EmbeddingStore::Build(qfd, db);
  ASSERT_EQ(store.size(), db.size());
  ASSERT_EQ(store.dim(), 27u);

  Histogram target = RandomHistogram(&rng, 27);
  std::vector<double> target_embedding = qfd.Embed(target);
  std::vector<double> batch(db.size());
  store.BatchDistances(target_embedding, batch);
  std::vector<double> row(store.dim());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_NEAR(batch[i], qfd.Distance(db[i], target), 1e-9) << "row " << i;
    store.CopyRow(i, row);
    EXPECT_DOUBLE_EQ(batch[i], EuclideanDistance(row, target_embedding));
  }
}

TEST(EmbeddingTest, BuildValidates) {
  Rng rng(1021);
  Palette palette = Palette::Uniform(8, &rng);
  QuadraticFormDistance qfd = *QuadraticFormDistance::Create(palette);
  EXPECT_FALSE(EmbeddingStore::Build(qfd, {}).ok());
  EXPECT_FALSE(EmbeddingStore::Build(qfd, {Histogram(5, 0.2)}).ok());
}

TEST(EmbeddingTest, ImageStoreEmbedsAtIngest) {
  ImageStoreOptions options;
  options.num_images = 50;
  options.palette_size = 27;
  Result<ImageStore> store = ImageStore::Generate(options);
  ASSERT_TRUE(store.ok());
  const EmbeddingStore& embeddings = store->embeddings();
  ASSERT_EQ(embeddings.size(), store->size());
  ASSERT_EQ(embeddings.dim(), 27u);
  const QuadraticFormDistance& qfd = store->color_distance();
  std::vector<double> row(embeddings.dim());
  for (size_t i = 0; i < store->size(); i += 9) {
    std::vector<double> expected = qfd.Embed(store->image(i).histogram);
    embeddings.CopyRow(i, row);
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_DOUBLE_EQ(row[j], expected[j]);
    }
  }
}

// The RAM store keeps rows as 8-dim column groups; accumulating a row over
// any split [0, a), [a, b), [b, dim) one group at a time must leave the
// same lane state, bit for bit, as one contiguous pass over a copy of the
// row, and the same total as SquaredDistance, at dims short of, equal to,
// just past and far beyond one 8-double line.
TEST(EmbeddingGroupsTest, GroupWiseAccumulationIsBitIdenticalAtEverySplit) {
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (size_t dim : {1u, 3u, 8u, 9u, 27u, 32u, 64u, 1024u}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    // Three rows, so group g of the middle row is not at offset 8g.
    EmbeddingStore store(3, dim);
    std::vector<std::vector<double>> rows(3, std::vector<double>(dim));
    for (size_t i = 0; i < rows.size(); ++i) {
      for (double& v : rows[i]) v = unit(rng);
      store.SetRow(i, rows[i]);
    }
    std::vector<double> t(dim);
    for (double& v : t) v = unit(rng);
    const std::vector<double>& row = rows[1];

    std::vector<double> copy(dim);
    store.CopyRow(1, copy);
    ASSERT_EQ(std::memcmp(copy.data(), row.data(), dim * sizeof(double)), 0);
    SquaredDistanceAccumulator whole;
    whole.Accumulate(row.data(), t.data(), 0, dim);
    const double want = SquaredDistance(row.data(), t.data(), dim);
    const double distance = std::sqrt(want);
    const double got_distance = store.Distance(1, t);
    ASSERT_EQ(std::memcmp(&got_distance, &distance, sizeof(double)), 0);
    for (size_t a = 0; a <= dim; ++a) {
      for (size_t b = a; b <= dim; ++b) {
        SquaredDistanceAccumulator acc;
        store.AccumulateRow(1, t.data(), 0, a, &acc);
        store.AccumulateRow(1, t.data(), a, b, &acc);
        store.AccumulateRow(1, t.data(), b, dim, &acc);
        ASSERT_EQ(std::memcmp(acc.lanes, whole.lanes, sizeof(acc.lanes)), 0)
            << "split [" << a << ", " << b << ")";
        const double total = acc.Total();
        ASSERT_EQ(std::memcmp(&total, &want, sizeof(double)), 0)
            << "split [" << a << ", " << b << ")";
      }
    }
  }
}

class CascadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(1031);
    palette_ = Palette::Uniform(64, &rng);
    qfd_ = *QuadraticFormDistance::Create(palette_);
    db_ = RandomDatabase(&rng, 500, 64);
    store_ = *EmbeddingStore::Build(qfd_, db_);
  }

  // Cascade output must equal ExactKnn output *exactly*: same indices, same
  // order, bit-identical distances.
  void ExpectIdentical(const std::vector<std::pair<size_t, double>>& got,
                       const std::vector<std::pair<size_t, double>>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].first, want[i].first) << "rank " << i;
      EXPECT_EQ(got[i].second, want[i].second) << "rank " << i;
    }
  }

  // The paper's two-level filter (§2.1): a 3-dim summary bound for every
  // object, then each candidate refined straight to the full 64 dims.
  static constexpr CascadeOptions kTwoLevel{.prefix_dim = 3,
                                            .use_quantized = false};

  Palette palette_;
  QuadraticFormDistance qfd_;
  std::vector<Histogram> db_;
  EmbeddingStore store_;
};

TEST_F(CascadeTest, MatchesExactKnnAcrossOptionsAndQueries) {
  Rng rng(1033);
  for (int q = 0; q < 8; ++q) {
    std::vector<double> target = qfd_.Embed(RandomHistogram(&rng, 64));
    std::vector<std::pair<size_t, double>> exact = store_.ExactKnn(target, 10);
    for (CascadeOptions options :
         {CascadeOptions{.prefix_dim = 1}, CascadeOptions{.prefix_dim = 3},
          CascadeOptions{.prefix_dim = 8}, CascadeOptions{.prefix_dim = 64}}) {
      CascadeStats stats;
      ExpectIdentical(store_.CascadeKnn(target, 10, options, &stats), exact);
      // Level -1 scans every object and orders the walk; no float prefix
      // bound runs.
      EXPECT_EQ(stats.quantized_bound_computations, db_.size());
      EXPECT_EQ(stats.bound_computations, 0u);
      options.use_quantized = false;
      CascadeStats fstats;
      ExpectIdentical(store_.CascadeKnn(target, 10, options, &fstats), exact);
      EXPECT_EQ(fstats.quantized_bound_computations, 0u);
      EXPECT_EQ(fstats.bound_computations, db_.size());
    }
  }
}

TEST_F(CascadeTest, MatchesLegacyExactKnnIndicesWithin1e9) {
  // Cross-path equivalence: the cascade (embedded arithmetic) against the
  // seed ExactKnn (quadratic-form arithmetic).
  Rng rng(1039);
  for (int q = 0; q < 5; ++q) {
    Histogram target = RandomHistogram(&rng, 64);
    std::vector<std::pair<size_t, double>> legacy =
        ExactKnn(qfd_, db_, target, 10);
    for (const CascadeOptions& options : {CascadeOptions{}, kTwoLevel}) {
      std::vector<std::pair<size_t, double>> cascade =
          store_.CascadeKnn(qfd_.Embed(target), 10, options);
      ASSERT_EQ(cascade.size(), legacy.size());
      for (size_t i = 0; i < legacy.size(); ++i) {
        EXPECT_EQ(cascade[i].first, legacy[i].first) << "rank " << i;
        EXPECT_NEAR(cascade[i].second, legacy[i].second, 1e-9);
      }
    }
  }
}

TEST_F(CascadeTest, TwoLevelFilterBoundsEveryRowAndRefinesToFullDepth) {
  Rng rng(1043);
  for (int q = 0; q < 5; ++q) {
    CascadeStats stats;
    store_.CascadeKnn(qfd_.Embed(RandomHistogram(&rng, 64)), 10, kTwoLevel,
                      &stats);
    // One summary bound per object, no int8 level; every candidate that
    // passes the bound is carried to the full distance, and the filter
    // skips most of them.
    EXPECT_EQ(stats.quantized_bound_computations, 0u);
    EXPECT_EQ(stats.bound_computations, db_.size());
    EXPECT_EQ(stats.candidates_refined, stats.full_distance_computations);
    EXPECT_EQ(stats.bytes_scanned_refine,
              stats.full_distance_computations * (64 - 3) * sizeof(double));
    EXPECT_LT(stats.full_distance_computations, db_.size());
  }
}

TEST_F(CascadeTest, RefinesFarFewerCandidatesThanTwoLevelFilter) {
  Rng rng(1049);
  size_t two_level_full = 0;
  size_t cascade_full = 0;
  for (int q = 0; q < 5; ++q) {
    std::vector<double> target = qfd_.Embed(RandomHistogram(&rng, 64));
    CascadeStats two_level_stats;
    store_.CascadeKnn(target, 10, kTwoLevel, &two_level_stats);
    CascadeStats cascade_stats;
    store_.CascadeKnn(target, 10, {}, &cascade_stats);
    two_level_full += two_level_stats.full_distance_computations;
    cascade_full += cascade_stats.full_distance_computations;
  }
  // Equal recall (both exact); the cascade must carry fewer candidates to
  // full precision than the two-level filter refines.
  EXPECT_LT(cascade_full, two_level_full);
}

TEST_F(CascadeTest, EdgeCases) {
  std::vector<double> target = qfd_.Embed(db_[0]);
  // k = 0: empty answer, no error.
  EXPECT_TRUE(store_.CascadeKnn(target, 0).empty());
  EXPECT_TRUE(store_.ExactKnn(target, 0).empty());
  // k >= N clamps to the full collection, still exactly ordered.
  std::vector<std::pair<size_t, double>> all =
      store_.CascadeKnn(target, db_.size() + 100);
  ExpectIdentical(all, store_.ExactKnn(target, db_.size()));
  EXPECT_EQ(all.size(), db_.size());
  // Self-query: the query object ranks first at distance exactly 0.
  EXPECT_EQ(all[0].first, 0u);
  EXPECT_EQ(all[0].second, 0.0);
  // Single-element store.
  EmbeddingStore one = *EmbeddingStore::Build(qfd_, {db_[0]});
  std::vector<std::pair<size_t, double>> single = one.CascadeKnn(target, 5);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].first, 0u);
}

TEST_F(CascadeTest, DuplicateDistancesBreakTiesByIndexDeterministically) {
  // A database of few distinct histograms, each repeated many times: almost
  // every comparison is a tie, so any nondeterministic tie handling shows.
  Rng rng(1051);
  std::vector<Histogram> distinct = RandomDatabase(&rng, 5, 64);
  std::vector<Histogram> db;
  for (int copy = 0; copy < 20; ++copy) {
    for (const Histogram& h : distinct) db.push_back(h);
  }
  EmbeddingStore store = *EmbeddingStore::Build(qfd_, db);
  std::vector<double> target = qfd_.Embed(distinct[2]);
  std::vector<std::pair<size_t, double>> exact = store.ExactKnn(target, 23);
  // Ties resolve by ascending index.
  for (size_t i = 1; i < exact.size(); ++i) {
    if (exact[i].second == exact[i - 1].second) {
      EXPECT_LT(exact[i - 1].first, exact[i].first);
    }
  }
  for (CascadeOptions options :
       {CascadeOptions{},
        CascadeOptions{.prefix_dim = 1, .use_quantized = false},
        CascadeOptions{.prefix_dim = 64, .use_quantized = false}, kTwoLevel}) {
    ExpectIdentical(store.CascadeKnn(target, 23, options), exact);
  }
}

TEST(CascadeDegenerateTest, FlatSpectrumPaletteStaysExact) {
  // A regular-tetrahedron palette makes all colors mutually equidistant:
  // A = I, so B = P has the flattest possible spectrum and a short prefix
  // captures the least energy any palette allows (1/(k-1) per dimension).
  // The bound is nearly uninformative — correctness must not depend on it.
  Result<Palette> palette = Palette::FromColors({{0.0, 0.0, 0.0},
                                                 {1.0, 1.0, 0.0},
                                                 {1.0, 0.0, 1.0},
                                                 {0.0, 1.0, 1.0}});
  ASSERT_TRUE(palette.ok());
  QuadraticFormDistance qfd = *QuadraticFormDistance::Create(*palette);
  const std::vector<double>& lambda = qfd.eigenvalues();
  EXPECT_NEAR(lambda[0] / std::accumulate(lambda.begin(), lambda.end(), 0.0),
              1.0 / 3.0, 1e-6);

  Rng rng(1061);
  std::vector<Histogram> db = RandomDatabase(&rng, 200, 4);
  EmbeddingStore store = *EmbeddingStore::Build(qfd, db);
  for (int q = 0; q < 5; ++q) {
    Histogram target = RandomHistogram(&rng, 4, 2);
    std::vector<double> target_embedding = qfd.Embed(target);
    std::vector<std::pair<size_t, double>> exact =
        store.ExactKnn(target_embedding, 10);
    std::vector<std::pair<size_t, double>> cascade =
        store.CascadeKnn(target_embedding, 10);
    ASSERT_EQ(cascade.size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(cascade[i].first, exact[i].first);
      EXPECT_EQ(cascade[i].second, exact[i].second);
    }
    // The two-level filter over a 1-dim summary must also stay exact here.
    std::vector<std::pair<size_t, double>> filtered = store.CascadeKnn(
        target_embedding, 10, {.prefix_dim = 1, .use_quantized = false});
    ASSERT_EQ(filtered.size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(filtered[i].first, exact[i].first);
      EXPECT_EQ(filtered[i].second, exact[i].second);
    }
  }
}

TEST(CascadeDegenerateTest, ClusteredPaletteCollapsesDistancesButStaysExact) {
  // Two tight clusters of nearly identical colors: one dominant eigenpair
  // (the between-cluster axis) and the rest ~0 — within-cluster distances
  // nearly collapse, producing masses of near-ties.
  std::vector<Rgb> colors;
  for (int i = 0; i < 4; ++i) {
    double eps = 1e-6 * static_cast<double>(i);
    colors.push_back({0.1 + eps, 0.1, 0.1});
    colors.push_back({0.9 - eps, 0.9, 0.9});
  }
  Result<Palette> palette = Palette::FromColors(std::move(colors));
  ASSERT_TRUE(palette.ok());
  QuadraticFormDistance qfd = *QuadraticFormDistance::Create(*palette);

  Rng rng(1063);
  std::vector<Histogram> db = RandomDatabase(&rng, 200, 8);
  EmbeddingStore store = *EmbeddingStore::Build(qfd, db);
  for (int q = 0; q < 5; ++q) {
    std::vector<double> target = qfd.Embed(RandomHistogram(&rng, 8));
    std::vector<std::pair<size_t, double>> exact = store.ExactKnn(target, 15);
    std::vector<std::pair<size_t, double>> cascade =
        store.CascadeKnn(target, 15, {.prefix_dim = 2});
    ASSERT_EQ(cascade.size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(cascade[i].first, exact[i].first) << "rank " << i;
      EXPECT_EQ(cascade[i].second, exact[i].second) << "rank " << i;
    }
  }
}

// The cascade must visit exactly the (bound, index)-ascending sequence of a
// full sort of every row's bound, whatever chunk of that sequence its
// bounded selection holds: answers and every CascadeStats counter equal the
// full-sort reference walk, on tie storms broken only by index, at every
// refinement geometry over the store's column groups.
TEST(CascadeWalkOrderTest, MatchesTheFullSortWalkOnTieStorms) {
  using cascade_reference::GoldenCollection;
  const GoldenCollection golden = GoldenCollection::Make();
  const size_t n = golden.rows.size();
  EmbeddingStore store(n, GoldenCollection::kDim);
  for (size_t i = 0; i < n; ++i) store.SetRow(i, golden.rows[i]);
  store.BuildQuantized();
  const QuantizedStore& qs = store.quantized();

  // The cluster really is a tie storm at both levels: its int8 bounds clamp
  // to 0.0 and its float prefix bounds are exactly 0.
  const std::vector<double>& centre = golden.targets[0];
  const QuantizedStore::EncodedQuery enc = qs.EncodeQuery(centre);
  size_t int8_zero = 0;
  size_t prefix_zero = 0;
  for (size_t i = 0; i < n; ++i) {
    if (qs.LowerBound2(enc, i) == 0.0) ++int8_zero;
    SquaredDistanceAccumulator prefix;
    store.AccumulateRow(i, centre.data(), 0, GoldenCollection::kPrefixDim,
                        &prefix);
    if (prefix.Total() == 0.0) ++prefix_zero;
  }
  EXPECT_GE(int8_zero, GoldenCollection::kCluster);
  EXPECT_GE(prefix_zero, GoldenCollection::kCluster);

  // The reference reads the collection's own contiguous rows, not the
  // store's column groups, so it stays an independent oracle.
  struct GoldenRows {
    const GoldenCollection* golden;
    const double* Acquire(size_t i) { return golden->rows[i].data(); }
  };
  // Float prefixes that end inside, at and past a column-group line, the
  // paper's s = 3, the default 8, and the whole row. Every visited
  // candidate is refined to full depth, reading the dims past the prefix in
  // float mode and the whole row after the int8 level.
  constexpr size_t kDim = GoldenCollection::kDim;
  ThreadPool pool(3);
  for (size_t t = 0; t < golden.targets.size(); ++t) {
    const std::vector<double>& target = golden.targets[t];
    for (size_t prefix : {size_t{1}, size_t{3}, size_t{8}, size_t{9}, kDim}) {
      for (size_t shards : {1u, 2u, 3u}) {
        for (bool int8 : {true, false}) {
          for (size_t k : {size_t{1}, size_t{10}, size_t{100}, n}) {
            SCOPED_TRACE("target=" + std::to_string(t) +
                         " prefix=" + std::to_string(prefix) +
                         " shards=" + std::to_string(shards) +
                         " int8=" + std::to_string(int8) +
                         " k=" + std::to_string(k));
            const CascadeOptions options{.prefix_dim = prefix,
                                         .use_quantized = int8};
            CascadeStats want_stats;
            std::vector<std::pair<size_t, double>> want;
            ASSERT_TRUE(cascade_reference::FullSortCascadeKnn(
                [&] { return GoldenRows{&golden}; }, n, target, k, options,
                int8 ? &qs : nullptr, shards, &want, &want_stats));
            CascadeStats got_stats;
            cascade_reference::ExpectSameAnswer(
                store.CascadeKnn(target, k, options, &got_stats, &pool,
                                 shards),
                want);
            cascade_reference::ExpectSameStats(got_stats, want_stats);
            EXPECT_EQ(got_stats.full_distance_computations,
                      got_stats.candidates_refined);
            EXPECT_EQ(got_stats.bytes_scanned_refine,
                      got_stats.candidates_refined *
                          (int8 ? kDim : kDim - prefix) * sizeof(double));
            if (t == 0 && prefix == 8 && k == 10 && shards == 1) {
              // The walk used up the first chunk (256 pairs) and the
              // second (512) before it could stop.
              EXPECT_GT(got_stats.candidates_refined, 256u + 512u);
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace fuzzydb

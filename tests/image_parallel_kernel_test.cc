// Golden-equivalence tests for the sharded embedding kernels: at every
// tested shard count — with and without a real thread pool — BatchDistances,
// ExactKnn and CascadeKnn must be *bit-identical* to their serial versions
// (the lane-blocked kernel's accumulation order depends only on absolute
// dimension indices, shard geometry depends only on (n, shards), and the
// top-k merge uses the same lexicographic (d^2, index) order). Also pins the
// CascadeTuner invariant: tuning changes costs, never answers.

#include "image/embedding_store.h"

#include <gtest/gtest.h>

#include <thread>

#include "image/cascade_tuner.h"
#include "image/image_store.h"

namespace fuzzydb {
namespace {

std::vector<Histogram> RandomDatabase(Rng* rng, size_t n, size_t bins) {
  std::vector<Histogram> db;
  db.reserve(n);
  for (size_t i = 0; i < n; ++i) db.push_back(RandomHistogram(rng, bins));
  return db;
}

std::vector<size_t> ShardCounts() {
  return {1, 2, 7, std::max<size_t>(1, std::thread::hardware_concurrency())};
}

class ParallelKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2027);
    palette_ = Palette::Uniform(64, &rng);
    qfd_ = *QuadraticFormDistance::Create(palette_);
    db_ = RandomDatabase(&rng, 523, 64);  // deliberately not round
    store_ = *EmbeddingStore::Build(qfd_, db_);
    for (int q = 0; q < 6; ++q) {
      targets_.push_back(qfd_.Embed(RandomHistogram(&rng, 64)));
    }
  }

  static void ExpectIdentical(
      const std::vector<std::pair<size_t, double>>& got,
      const std::vector<std::pair<size_t, double>>& want,
      const std::string& label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].first, want[i].first) << label << " rank " << i;
      EXPECT_EQ(got[i].second, want[i].second) << label << " rank " << i;
    }
  }

  Palette palette_;
  QuadraticFormDistance qfd_;
  std::vector<Histogram> db_;
  EmbeddingStore store_;
  std::vector<std::vector<double>> targets_;
};

TEST_F(ParallelKernelTest, BatchDistancesBitIdenticalAcrossShardCounts) {
  ThreadPool pool(4);
  for (const std::vector<double>& target : targets_) {
    std::vector<double> serial(store_.size());
    store_.BatchDistances(target, serial);
    for (size_t shards : ShardCounts()) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        std::vector<double> sharded(store_.size());
        store_.BatchDistances(target, sharded, p, shards);
        for (size_t i = 0; i < serial.size(); ++i) {
          ASSERT_EQ(sharded[i], serial[i])
              << "shards=" << shards << " pool=" << (p != nullptr)
              << " row=" << i;
        }
      }
    }
  }
}

TEST_F(ParallelKernelTest, ExactKnnBitIdenticalAcrossShardCounts) {
  ThreadPool pool(4);
  for (const std::vector<double>& target : targets_) {
    for (size_t k : {1u, 10u, 523u}) {
      std::vector<std::pair<size_t, double>> serial = store_.ExactKnn(target, k);
      for (size_t shards : ShardCounts()) {
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          ExpectIdentical(store_.ExactKnn(target, k, p, shards), serial,
                          "exact k=" + std::to_string(k) + " shards=" +
                              std::to_string(shards));
        }
      }
    }
  }
}

TEST_F(ParallelKernelTest, CascadeKnnBitIdenticalAcrossShardCounts) {
  ThreadPool pool(4);
  for (const std::vector<double>& target : targets_) {
    for (CascadeOptions options :
         {CascadeOptions{1, 1}, CascadeOptions{8, 16}, CascadeOptions{64, 16}}) {
      std::vector<std::pair<size_t, double>> serial =
          store_.CascadeKnn(target, 10, options);
      for (size_t shards : ShardCounts()) {
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          CascadeStats stats;
          ExpectIdentical(
              store_.CascadeKnn(target, 10, options, &stats, p, shards),
              serial, "cascade shards=" + std::to_string(shards));
          // Every row passes the int8 level -1 exactly once regardless of
          // sharding; the float prefix bound runs only for its survivors.
          EXPECT_EQ(stats.quantized_bound_computations, store_.size());
          EXPECT_LE(stats.bound_computations, store_.size());
        }
      }
    }
  }
}

TEST_F(ParallelKernelTest, ShardedStatsAreDeterministic) {
  // Shard-local pruning may do *more* refinement work than the serial scan,
  // but for a fixed (target, options, shards) the summed counters must be
  // exactly reproducible run over run.
  ThreadPool pool(4);
  for (size_t shards : ShardCounts()) {
    CascadeStats first, second;
    store_.CascadeKnn(targets_[0], 10, {}, &first, &pool, shards);
    store_.CascadeKnn(targets_[0], 10, {}, &second, &pool, shards);
    EXPECT_EQ(first.quantized_bound_computations,
              second.quantized_bound_computations);
    EXPECT_EQ(first.bound_computations, second.bound_computations);
    EXPECT_EQ(first.bytes_scanned_quantized, second.bytes_scanned_quantized);
    EXPECT_EQ(first.bytes_scanned_prefix, second.bytes_scanned_prefix);
    EXPECT_EQ(first.bytes_scanned_refine, second.bytes_scanned_refine);
    EXPECT_EQ(first.candidates_refined, second.candidates_refined);
    EXPECT_EQ(first.full_distance_computations,
              second.full_distance_computations);
    EXPECT_EQ(first.dims_accumulated, second.dims_accumulated);
  }
}

TEST_F(ParallelKernelTest, DuplicateRowsKeepIndexTieBreakWhenSharded) {
  // Few distinct rows, many copies: ties everywhere, across shard borders
  // too. The merged top-k must resolve them by ascending index exactly like
  // the serial scan.
  Rng rng(2029);
  std::vector<Histogram> distinct = RandomDatabase(&rng, 5, 64);
  std::vector<Histogram> db;
  for (int copy = 0; copy < 21; ++copy) {
    for (const Histogram& h : distinct) db.push_back(h);
  }
  EmbeddingStore store = *EmbeddingStore::Build(qfd_, db);
  std::vector<double> target = qfd_.Embed(distinct[2]);
  ThreadPool pool(4);
  std::vector<std::pair<size_t, double>> serial = store.ExactKnn(target, 23);
  for (size_t i = 1; i < serial.size(); ++i) {
    if (serial[i].second == serial[i - 1].second) {
      EXPECT_LT(serial[i - 1].first, serial[i].first);
    }
  }
  for (size_t shards : ShardCounts()) {
    ExpectIdentical(store.ExactKnn(target, 23, &pool, shards), serial,
                    "dup exact shards=" + std::to_string(shards));
    ExpectIdentical(store.CascadeKnn(target, 23, {}, nullptr, &pool, shards),
                    serial, "dup cascade shards=" + std::to_string(shards));
  }
}

TEST_F(ParallelKernelTest, MoreShardsThanRowsStillCorrect) {
  Rng rng(2039);
  std::vector<Histogram> tiny = RandomDatabase(&rng, 3, 64);
  EmbeddingStore store = *EmbeddingStore::Build(qfd_, tiny);
  ThreadPool pool(4);
  std::vector<double> target = qfd_.Embed(tiny[1]);
  std::vector<std::pair<size_t, double>> serial = store.ExactKnn(target, 3);
  for (size_t shards : {4u, 16u, 100u}) {
    ExpectIdentical(store.ExactKnn(target, 3, &pool, shards), serial,
                    "tiny shards=" + std::to_string(shards));
  }
}

TEST_F(ParallelKernelTest, TunerNeverChangesAnswers) {
  std::vector<std::vector<double>> calibration(targets_.begin(),
                                               targets_.begin() + 3);
  CascadeTunerOptions options;
  options.k = 10;
  TunedCascade tuned = CascadeTuner::Tune(store_, qfd_.eigenvalues(),
                                          calibration, options);
  EXPECT_GE(tuned.options.prefix_dim, 1u);
  EXPECT_GE(tuned.options.step, 1u);
  EXPECT_FALSE(tuned.sweep.empty());
  // The winner's modeled cost is the minimum of the sweep.
  for (const CascadeCandidate& c : tuned.sweep) {
    EXPECT_LE(tuned.cost, c.cost);
  }
  // Every swept configuration — winner included — returns exactly the
  // ExactKnn answer on fresh (non-calibration) queries.
  for (size_t q = 3; q < targets_.size(); ++q) {
    std::vector<std::pair<size_t, double>> exact =
        store_.ExactKnn(targets_[q], 10);
    for (const CascadeCandidate& c : tuned.sweep) {
      ExpectIdentical(store_.CascadeKnn(targets_[q], 10, c.options), exact,
                      "tuner prefix=" + std::to_string(c.options.prefix_dim) +
                          " step=" + std::to_string(c.options.step));
    }
    ExpectIdentical(store_.CascadeKnn(targets_[q], 10, tuned.options), exact,
                    "tuned winner");
  }
}

TEST_F(ParallelKernelTest, TunerSweepsShardCountsWhenGivenAPool) {
  std::vector<std::vector<double>> calibration(targets_.begin(),
                                               targets_.begin() + 2);
  ThreadPool pool(4);
  CascadeTunerOptions options;
  options.k = 10;
  options.pool = &pool;
  TunedCascade tuned = CascadeTuner::Tune(store_, qfd_.eigenvalues(),
                                          calibration, options);
  // The default shard grid widens to {1, 2, executors} with a real pool, so
  // the sweep must contain multi-shard candidates and the winner must still
  // be the sweep minimum.
  bool saw_multi_shard = false;
  for (const CascadeCandidate& c : tuned.sweep) {
    if (c.shards > 1) saw_multi_shard = true;
    EXPECT_LE(tuned.cost, c.cost);
  }
  EXPECT_TRUE(saw_multi_shard);
  EXPECT_GE(tuned.shards, 1u);
  // Whatever shard count wins, answers stay exact.
  std::vector<std::pair<size_t, double>> exact =
      store_.ExactKnn(targets_[3], 10);
  ExpectIdentical(store_.CascadeKnn(targets_[3], 10, tuned.options, nullptr,
                                    &pool, tuned.shards),
                  exact, "tuned sharded winner");
}

TEST_F(ParallelKernelTest, TunerPrefersOneShardWithoutRealParallelism) {
  // No pool: extra shards are charged full serial cost plus overhead, so
  // they can only lose and the deterministic tie-break keeps shards=1. This
  // is the 1-executor-host guarantee from DESIGN §3c.
  std::vector<std::vector<double>> calibration(targets_.begin(),
                                               targets_.begin() + 2);
  CascadeTunerOptions options;
  options.k = 10;
  options.shard_grid = {1, 2, 4};
  TunedCascade tuned = CascadeTuner::Tune(store_, qfd_.eigenvalues(),
                                          calibration, options);
  EXPECT_EQ(tuned.shards, 1u);
}

TEST_F(ParallelKernelTest, SpectrumPrefixesFollowTheEigenmass) {
  // Steep spectrum: one dominant eigenvalue -> short prefixes everywhere.
  std::vector<double> steep{100.0, 1.0, 0.5, 0.25, 0.1};
  std::vector<double> fractions{0.25, 0.5, 0.75, 0.9};
  std::vector<size_t> prefixes =
      CascadeTuner::SpectrumPrefixes(steep, fractions);
  ASSERT_FALSE(prefixes.empty());
  EXPECT_EQ(prefixes.front(), 1u);  // 100/101.85 > 90% already
  // Flat spectrum: fractions map to proportional depths.
  std::vector<double> flat(10, 1.0);
  prefixes = CascadeTuner::SpectrumPrefixes(flat, fractions);
  ASSERT_EQ(prefixes.size(), 4u);
  EXPECT_EQ(prefixes[0], 3u);   // ceil(0.25 * 10)
  EXPECT_EQ(prefixes[1], 5u);
  EXPECT_EQ(prefixes[2], 8u);
  EXPECT_EQ(prefixes[3], 9u);
  // Prefixes are sorted, unique, and within [1, dim].
  for (size_t i = 0; i < prefixes.size(); ++i) {
    EXPECT_GE(prefixes[i], 1u);
    EXPECT_LE(prefixes[i], flat.size());
    if (i > 0) {
      EXPECT_LT(prefixes[i - 1], prefixes[i]);
    }
  }
}

TEST_F(ParallelKernelTest, GeneratedStoreExposesTunedCascade) {
  ImageStoreOptions options;
  options.num_images = 60;
  options.palette_size = 27;
  Result<ImageStore> store = ImageStore::Generate(options);
  ASSERT_TRUE(store.ok());
  const CascadeOptions& tuned = store->tuned_cascade();
  EXPECT_GE(tuned.prefix_dim, 1u);
  EXPECT_LE(tuned.prefix_dim, 27u);
  EXPECT_GE(tuned.step, 1u);
  // And the tuned options still answer exactly like ExactKnn.
  std::vector<double> target =
      store->color_distance().Embed(store->image(7).histogram);
  ExpectIdentical(store->embeddings().CascadeKnn(target, 5, tuned),
                  store->embeddings().ExactKnn(target, 5), "store tuned");
}

}  // namespace
}  // namespace fuzzydb

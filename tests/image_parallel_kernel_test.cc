// Golden-equivalence tests for the sharded embedding kernels: at every
// tested shard count — with and without a real thread pool — BatchDistances,
// ExactKnn and CascadeKnn must be *bit-identical* to their serial versions
// (the lane-blocked kernel's accumulation order depends only on absolute
// dimension indices, shard geometry depends only on (n, shards), and the
// top-k merge uses the same lexicographic (d^2, index) order).

#include "image/embedding_store.h"

#include <gtest/gtest.h>

#include <thread>

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
         {CascadeOptions{}, CascadeOptions{.prefix_dim = 1,
                                           .use_quantized = false},
          CascadeOptions{.prefix_dim = 64, .use_quantized = false},
          CascadeOptions{.prefix_dim = 3, .use_quantized = false}}) {
      std::vector<std::pair<size_t, double>> serial =
          store_.CascadeKnn(target, 10, options);
      for (size_t shards : ShardCounts()) {
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          CascadeStats stats;
          ExpectIdentical(
              store_.CascadeKnn(target, 10, options, &stats, p, shards),
              serial, "cascade shards=" + std::to_string(shards));
          // Every row passes the level that orders the walk exactly once
          // regardless of sharding: the int8 level -1 or else the float
          // prefix bound.
          if (options.use_quantized) {
            EXPECT_EQ(stats.quantized_bound_computations, store_.size());
            EXPECT_EQ(stats.bound_computations, 0u);
          } else {
            EXPECT_EQ(stats.quantized_bound_computations, 0u);
            EXPECT_EQ(stats.bound_computations, store_.size());
          }
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

}  // namespace
}  // namespace fuzzydb

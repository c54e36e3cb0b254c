// The quantized tier's two load-bearing claims, tested directly:
//
//  1. Admissibility by construction — QuantizedStore::LowerBound2 never
//     exceeds the exact squared embedding distance, for every (query, row)
//     pair, at zero tolerance. Not statistically: the bound carries its own
//     safety margin, so a single overshoot is a bug.
//  2. Answer preservation — CascadeKnn with the int8 level -1 engaged is
//     bit-identical to ExactKnn (same indices, same order, same distance
//     bits) at every shard count, under tie storms, and on adversarially
//     scaled data.

#include "image/quantized_store.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>

#include "common/squared_distance.h"
#include "image/embedding_store.h"
#include "image/quadratic_distance.h"
#include "tests/cascade_reference.h"

namespace fuzzydb {
namespace {

std::vector<Histogram> RandomDatabase(Rng* rng, size_t n, size_t bins) {
  std::vector<Histogram> db;
  db.reserve(n);
  for (size_t i = 0; i < n; ++i) db.push_back(RandomHistogram(rng, bins));
  return db;
}

std::vector<double> RowCopy(const EmbeddingStore& store, size_t i) {
  std::vector<double> row(store.dim());
  store.CopyRow(i, row);
  return row;
}

double ExactSquared(const EmbeddingStore& store, size_t i,
                    std::span<const double> target) {
  SquaredDistanceAccumulator acc;
  acc.Accumulate(RowCopy(store, i).data(), target.data(), 0, store.dim());
  return acc.Total();
}

std::vector<size_t> ShardCounts() {
  return {1, 2, 7, std::max<size_t>(1, std::thread::hardware_concurrency())};
}

void ExpectIdentical(const std::vector<std::pair<size_t, double>>& got,
                     const std::vector<std::pair<size_t, double>>& want,
                     const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first) << label << " rank " << i;
    EXPECT_EQ(got[i].second, want[i].second) << label << " rank " << i;
  }
}

TEST(QuantizedStoreTest, LowerBoundIsAdmissibleForEveryPairAcrossBinCounts) {
  Rng rng(6007);
  for (size_t bins : {8u, 27u, 64u}) {
    Palette palette = Palette::Uniform(bins, &rng);
    QuadraticFormDistance qfd = *QuadraticFormDistance::Create(palette);
    EmbeddingStore store = *EmbeddingStore::Build(
        qfd, RandomDatabase(&rng, 120, bins));
    ASSERT_TRUE(store.has_quantized());
    const QuantizedStore& qs = store.quantized();
    EXPECT_EQ(qs.size(), store.size());
    EXPECT_EQ(qs.dim(), store.dim());
    for (int q = 0; q < 6; ++q) {
      // Mix of in-distribution targets and perturbed stored rows.
      std::vector<double> target;
      if (q % 2 == 0) {
        target = qfd.Embed(RandomHistogram(&rng, bins));
      } else {
        target = RowCopy(store, q % store.size());
        for (double& v : target) v += 0.05 * (rng.NextDouble() - 0.5);
      }
      const QuantizedStore::EncodedQuery enc = qs.EncodeQuery(target);
      for (size_t i = 0; i < store.size(); ++i) {
        const double bound = qs.LowerBound2(enc, i);
        const double exact = ExactSquared(store, i, target);
        ASSERT_LE(bound, exact)
            << "bins=" << bins << " q=" << q << " row=" << i;
        ASSERT_GE(bound, 0.0);
      }
    }
  }
}

TEST(QuantizedStoreTest, StoredCodesNeverClampAndResidualsAreExact) {
  Rng rng(6011);
  Palette palette = Palette::Uniform(27, &rng);
  QuadraticFormDistance qfd = *QuadraticFormDistance::Create(palette);
  EmbeddingStore store =
      *EmbeddingStore::Build(qfd, RandomDatabase(&rng, 40, 27));
  const QuantizedStore& qs = store.quantized();
  for (size_t i = 0; i < qs.size(); ++i) {
    std::span<const int8_t> codes = qs.RowCodes(i);
    const std::vector<double> row = RowCopy(store, i);
    double residual_sq = 0.0;
    for (size_t j = 0; j < qs.dim(); ++j) {
      ASSERT_GE(codes[j], -simd::kInt8CodeMax);
      ASSERT_LE(codes[j], simd::kInt8CodeMax);
      const double err = row[j] -
                         static_cast<double>(codes[j]) *
                             qs.scale(j / QuantizedStore::kBlockDim);
      residual_sq += err * err;
    }
    // Padding dims must stay zero codes.
    for (size_t j = qs.dim(); j < qs.padded_dim(); ++j) {
      ASSERT_EQ(codes[j], 0);
    }
    EXPECT_DOUBLE_EQ(qs.row_residual(i), std::sqrt(residual_sq)) << i;
  }
}

TEST(QuantizedStoreTest, FarOutOfRangeTargetsClampButStayAdmissible) {
  // Query values 1000x beyond the data's range force query-side clamping;
  // clamping grows the query residual, which may only weaken the bound.
  Rng rng(6029);
  Palette palette = Palette::Uniform(16, &rng);
  QuadraticFormDistance qfd = *QuadraticFormDistance::Create(palette);
  EmbeddingStore store =
      *EmbeddingStore::Build(qfd, RandomDatabase(&rng, 60, 16));
  const QuantizedStore& qs = store.quantized();
  std::vector<double> target(store.dim());
  for (size_t j = 0; j < target.size(); ++j) {
    target[j] = 1000.0 * (rng.NextDouble() - 0.5);
  }
  const QuantizedStore::EncodedQuery enc = qs.EncodeQuery(target);
  for (size_t i = 0; i < store.size(); ++i) {
    ASSERT_LE(qs.LowerBound2(enc, i), ExactSquared(store, i, target)) << i;
  }
  // And the cascade still answers exactly.
  ExpectIdentical(store.CascadeKnn(target, 5), store.ExactKnn(target, 5),
                  "far target");
}

TEST(QuantizedStoreTest, AdversarialScaleBlockStaysAdmissible) {
  // Worst case for per-block scaling: one huge outlier value makes its
  // block's scale enormous, so every other value in that block quantizes to
  // code 0 and the bound must survive on the residual correction alone.
  const size_t dim = 48;
  EmbeddingStore store(6, dim);
  Rng rng(6037);
  for (size_t i = 0; i < store.size(); ++i) {
    std::vector<double> row(dim);
    for (size_t j = 0; j < dim; ++j) row[j] = rng.NextDouble() - 0.5;
    if (i == 3) row[17] = 1e6;  // the outlier poisons block 1's scale
    store.SetRow(i, row);
  }
  store.BuildQuantized();
  const QuantizedStore& qs = store.quantized();
  Rng trng(6043);
  for (int q = 0; q < 8; ++q) {
    std::vector<double> target(dim);
    for (double& v : target) v = trng.NextDouble() - 0.5;
    if (q == 7) target[17] = 1e6;  // meet the outlier in its own block
    const QuantizedStore::EncodedQuery enc = qs.EncodeQuery(target);
    for (size_t i = 0; i < store.size(); ++i) {
      ASSERT_LE(qs.LowerBound2(enc, i), ExactSquared(store, i, target))
          << "q=" << q << " row=" << i;
    }
    ExpectIdentical(store.CascadeKnn(target, 3), store.ExactKnn(target, 3),
                    "adversarial q=" + std::to_string(q));
  }
}

TEST(QuantizedStoreTest, BatchLowerBoundsShardedIsBitIdenticalToSerial) {
  Rng rng(6047);
  // Padded dims 16, 32 and 64: batches of 256, 128 and 64 rows, so 203 rows
  // end in a partial batch (or never fill one).
  for (size_t bins : {8u, 32u, 64u}) {
    SCOPED_TRACE("bins=" + std::to_string(bins));
    Palette palette = Palette::Uniform(bins, &rng);
    QuadraticFormDistance qfd = *QuadraticFormDistance::Create(palette);
    EmbeddingStore store =
        *EmbeddingStore::Build(qfd, RandomDatabase(&rng, 203, bins));
    const QuantizedStore& qs = store.quantized();
    const QuantizedStore::EncodedQuery enc =
        qs.EncodeQuery(qfd.Embed(RandomHistogram(&rng, bins)));
    std::vector<double> serial(qs.size());
    qs.BatchLowerBounds2(enc, serial);
    // The batched routine equals the single-row path bit for bit.
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(serial[i]),
                std::bit_cast<uint64_t>(qs.LowerBound2(enc, i)))
          << "i=" << i;
    }
    // Any range: 1-row ranges, and lengths around the batch size.
    for (size_t begin : {size_t{0}, size_t{1}, size_t{70}, size_t{202}}) {
      for (size_t len : {1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u, 203u}) {
        if (begin + len > qs.size()) continue;
        std::vector<double> part(len, -1.0);
        qs.LowerBounds2Range(enc, begin, part);
        for (size_t r = 0; r < len; ++r) {
          ASSERT_EQ(std::bit_cast<uint64_t>(part[r]),
                    std::bit_cast<uint64_t>(serial[begin + r]))
              << "begin=" << begin << " len=" << len << " r=" << r;
        }
      }
    }
  }
}

// The fused bound kernel at every level this host can run, called directly
// on ranges of a store's rows, must equal the single-row LowerBound2 bit
// for bit: 1, 2, 3, 4 and kMaxBlocks = 64 blocks (with and without an odd
// trailing block, and a partial last block), ranges that are not multiples
// of four rows and start off a four-row boundary, bounds that clamp to 0,
// and a target far outside the store's range, whose codes clamp.
TEST(QuantizedStoreTest, FusedBoundsEqualLowerBound2AtEveryLevel) {
  const size_t kRows = 4110;
  for (size_t dim : {1u, 16u, 27u, 32u, 48u, 64u, 1024u}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    Rng rng(6101 + dim);
    std::vector<double> spectrum(dim);
    for (size_t j = 0; j < dim; ++j) {
      spectrum[j] = std::exp(-0.05 * static_cast<double>(j));
    }
    std::vector<double> near(dim);
    for (size_t j = 0; j < dim; ++j) {
      near[j] = (2.0 * rng.NextDouble() - 1.0) * spectrum[j];
    }
    // Every 97th row is the near target itself, so its bound clamps to 0.
    std::vector<double> rows(kRows * dim);
    for (size_t i = 0; i < kRows; ++i) {
      for (size_t j = 0; j < dim; ++j) {
        rows[i * dim + j] = i % 97 == 5
                                ? near[j]
                                : (2.0 * rng.NextDouble() - 1.0) * spectrum[j];
      }
    }
    const QuantizedStore qs = QuantizedStore::Build(
        kRows, dim, [&](size_t i, std::span<double> out) {
          std::copy_n(rows.begin() + static_cast<long>(i * dim), dim,
                      out.begin());
        });
    std::vector<double> scales_sq;
    for (double s : qs.scales()) scales_sq.push_back(s * s);
    std::vector<double> far(dim);
    for (size_t j = 0; j < dim; ++j) far[j] = 1000.0 * (j % 2 ? 1.0 : -1.0);

    for (const std::vector<double>* target : {&near, &far}) {
      const bool is_far = target == &far;
      SCOPED_TRACE(is_far ? "far target" : "near target");
      const QuantizedStore::EncodedQuery enc = qs.EncodeQuery(*target);
      std::vector<double> want(kRows);
      size_t zeros = 0;
      for (size_t i = 0; i < kRows; ++i) {
        want[i] = qs.LowerBound2(enc, i);
        if (want[i] == 0.0) ++zeros;
      }
      if (is_far) {
        EXPECT_EQ(std::abs(enc.codes[0]), simd::kInt8CodeMax);
      } else {
        EXPECT_GE(zeros, kRows / 97);
      }
      for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2,
                                simd::Level::kAvx512Vnni}) {
        if (level > simd::Detect()) continue;
        const simd::BoundsFn bounds = simd::ResolveBounds(level);
        for (size_t begin : {1u, 6u}) {
          for (size_t len : {1u, 3u, 4u, 5u, 127u, 4095u, 4097u}) {
            std::vector<double> got(len, -1.0);
            bounds(qs.RowCodes(begin).data(), enc.codes.data(), qs.blocks(),
                   scales_sq.data(), qs.residuals().data() + begin,
                   enc.residual, len, got.data());
            ASSERT_EQ(std::memcmp(got.data(), want.data() + begin,
                                  len * sizeof(double)),
                      0)
                << simd::Name(level) << " begin=" << begin << " len=" << len;
          }
        }
      }
      // And the store's own range call, at the active level.
      std::vector<double> got(kRows - 3, -1.0);
      qs.LowerBounds2Range(enc, 3, got);
      ASSERT_EQ(std::memcmp(got.data(), want.data() + 3,
                            got.size() * sizeof(double)),
                0);
    }
  }
}

// Level −1 admission ties: hundreds of duplicate rows share the smallest
// int8 bound, so once the first chunk fills, every later duplicate's bound
// equals the heap top exactly and must lose its tie on index. Answers and
// every CascadeStats counter must equal the full-sort reference walk.
TEST(QuantizedStoreTest, AdmissionTiesAtTheHeapTopMatchTheFullSortWalk) {
  const size_t dim = 24;
  const size_t n = 1500;
  Rng rng(6113);
  auto draw = [&] {
    std::vector<double> x(dim);
    for (size_t j = 0; j < dim; ++j) {
      x[j] = (2.0 * rng.NextDouble() - 1.0) *
             std::exp(-0.15 * static_cast<double>(j));
    }
    return x;
  };
  const std::vector<double> twin = draw();
  EmbeddingStore store(n, dim);
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(i % 5 < 3 ? twin : draw());
    store.SetRow(i, rows.back());
  }
  store.BuildQuantized();
  const QuantizedStore& qs = store.quantized();
  const std::vector<double> off_twin = [&] {
    std::vector<double> x = twin;
    for (double& v : x) v += 0.02 * (rng.NextDouble() - 0.5);
    return x;
  }();

  // The reference reads its own contiguous rows, not the store's column
  // groups, so it stays an independent oracle.
  struct ContiguousRows {
    const std::vector<std::vector<double>>* rows;
    const double* Acquire(size_t i) { return (*rows)[i].data(); }
  };
  ThreadPool pool(3);
  for (const std::vector<double>* target : {&twin, &off_twin}) {
    // The 900 twins tie at the smallest bound, beyond any first chunk.
    const QuantizedStore::EncodedQuery enc = qs.EncodeQuery(*target);
    const double twin_bound = qs.LowerBound2(enc, 0);
    size_t ties = 0;
    for (size_t i = 0; i < n; ++i) {
      const double b = qs.LowerBound2(enc, i);
      ASSERT_GE(b, twin_bound);
      if (b == twin_bound) ++ties;
    }
    ASSERT_GE(ties, 900u);
    for (size_t shards : {1u, 2u, 3u}) {
      for (size_t k : {size_t{1}, size_t{10}, size_t{100}, size_t{400}}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " k=" + std::to_string(k) +
                     (target == &twin ? " twin" : " off twin"));
        CascadeStats want_stats;
        std::vector<std::pair<size_t, double>> want;
        ASSERT_TRUE(cascade_reference::FullSortCascadeKnn(
            [&] { return ContiguousRows{&rows}; }, n, *target, k,
            CascadeOptions{}, &qs, shards, &want, &want_stats));
        CascadeStats got_stats;
        cascade_reference::ExpectSameAnswer(
            store.CascadeKnn(*target, k, {}, &got_stats, &pool, shards), want);
        cascade_reference::ExpectSameStats(got_stats, want_stats);
      }
    }
  }
}

class QuantizedCascadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(6053);
    palette_ = Palette::Uniform(64, &rng);
    qfd_ = *QuadraticFormDistance::Create(palette_);
    db_ = RandomDatabase(&rng, 500, 64);
    store_ = *EmbeddingStore::Build(qfd_, db_);
    for (int q = 0; q < 5; ++q) {
      targets_.push_back(qfd_.Embed(RandomHistogram(&rng, 64)));
    }
  }

  Palette palette_;
  QuadraticFormDistance qfd_;
  std::vector<Histogram> db_;
  EmbeddingStore store_;
  std::vector<std::vector<double>> targets_;
};

TEST_F(QuantizedCascadeTest, GoldenBitIdenticalAcrossShardCountsAndOptions) {
  ThreadPool pool(4);
  for (const std::vector<double>& target : targets_) {
    const std::vector<std::pair<size_t, double>> exact =
        store_.ExactKnn(target, 10);
    for (CascadeOptions options :
         {CascadeOptions{.prefix_dim = 1}, CascadeOptions{.prefix_dim = 8},
          CascadeOptions{.prefix_dim = 64}}) {
      ASSERT_TRUE(options.use_quantized);  // the tier defaults on
      for (size_t shards : ShardCounts()) {
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          CascadeStats stats;
          ExpectIdentical(
              store_.CascadeKnn(target, 10, options, &stats, p, shards), exact,
              "int8 cascade shards=" + std::to_string(shards));
          EXPECT_EQ(stats.quantized_bound_computations, store_.size());
          EXPECT_EQ(stats.bytes_scanned_quantized,
                    store_.size() * store_.quantized().row_bytes());
        }
      }
    }
  }
}

TEST_F(QuantizedCascadeTest, DuplicateTieStormKeepsIndexOrder) {
  // 5 distinct rows x 21 copies: every distance ties 21 ways, across shard
  // borders, and the quantized bounds tie too. Rank order must still be
  // ascending-index, identical to the serial exact scan.
  Rng rng(6067);
  std::vector<Histogram> distinct = RandomDatabase(&rng, 5, 64);
  std::vector<Histogram> db;
  for (int copy = 0; copy < 21; ++copy) {
    for (const Histogram& h : distinct) db.push_back(h);
  }
  EmbeddingStore store = *EmbeddingStore::Build(qfd_, db);
  ASSERT_TRUE(store.has_quantized());
  std::vector<double> target = qfd_.Embed(distinct[2]);
  const std::vector<std::pair<size_t, double>> exact =
      store.ExactKnn(target, 23);
  for (size_t i = 1; i < exact.size(); ++i) {
    if (exact[i].second == exact[i - 1].second) {
      EXPECT_LT(exact[i - 1].first, exact[i].first);
    }
  }
  ThreadPool pool(4);
  for (size_t shards : ShardCounts()) {
    ExpectIdentical(store.CascadeKnn(target, 23, {}, nullptr, &pool, shards),
                    exact, "tie storm shards=" + std::to_string(shards));
  }
}

TEST_F(QuantizedCascadeTest, QuantizedOnAndOffReturnTheSameBits) {
  for (const std::vector<double>& target : targets_) {
    CascadeOptions off;
    off.use_quantized = false;
    ExpectIdentical(store_.CascadeKnn(target, 10),
                    store_.CascadeKnn(target, 10, off), "on == off");
  }
}

TEST_F(QuantizedCascadeTest, TierSkipsFarMoreRowsThanTheFloatPrefixAdmits) {
  // The tier's reason to exist: on a 500-row store the int8 full-dimension
  // bound should dismiss the overwhelming majority of rows before any
  // float work happens, and no float prefix bound runs at all.
  CascadeStats stats;
  for (const std::vector<double>& target : targets_) {
    store_.CascadeKnn(target, 10, {}, &stats);
  }
  EXPECT_EQ(stats.quantized_bound_computations,
            targets_.size() * store_.size());
  EXPECT_EQ(stats.bound_computations, 0u);
  EXPECT_LT(stats.candidates_refined, targets_.size() * store_.size() / 4);
}

TEST_F(QuantizedCascadeTest, EmptyAndEdgeCasesStayExact) {
  EXPECT_TRUE(store_.CascadeKnn(targets_[0], 0).empty());
  ExpectIdentical(store_.CascadeKnn(targets_[0], db_.size() + 10),
                  store_.ExactKnn(targets_[0], db_.size()), "k > n");
  // Self-query through the quantized tier: distance exactly 0 at rank 0.
  const std::vector<double> self = RowCopy(store_, 7);
  const auto got = store_.CascadeKnn(self, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 7u);
  EXPECT_EQ(got[0].second, 0.0);
}

}  // namespace
}  // namespace fuzzydb

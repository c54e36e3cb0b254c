// Walk-order reference for the cascade golden tests (DESIGN §3k).
//
// FullSortCascadeShard is the cascade walk as it stood before bounded
// selection: it stores every row's bound, the float prefix accumulator of
// every row, and one std::sort of all rows by (bound, index), then walks
// that order. The production knn_internal::CascadeShard selects the same
// (bound, index)-ascending sequence chunk by chunk, so its answers and every
// CascadeStats counter must equal this reference exactly. The per-row
// level −1 bound here is QuantizedStore::LowerBound2, the single-row path,
// so the comparison also pins the batched bound routine to it.
//
// GoldenCollection is the tie-storm data both golden tests share.

#ifndef FUZZYDB_TESTS_CASCADE_REFERENCE_H_
#define FUZZYDB_TESTS_CASCADE_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "common/squared_distance.h"
#include "common/thread_pool.h"
#include "image/knn_kernel.h"
#include "image/quantized_store.h"

namespace fuzzydb {
namespace cascade_reference {

template <typename RowAccessor>
bool FullSortCascadeShard(RowAccessor& rows, const double* t, size_t dim,
                          size_t k, const CascadeOptions& options,
                          const QuantizedStore* qs,
                          const QuantizedStore::EncodedQuery* qquery,
                          ShardRange range,
                          std::vector<std::pair<double, size_t>>* best,
                          CascadeStats* stats) {
  const size_t n = range.size();
  if (n == 0) return true;
  k = std::min(k, n);
  const size_t s0 = std::clamp<size_t>(options.prefix_dim, 1, dim);

  std::vector<SquaredDistanceAccumulator> prefix;
  std::vector<double> bound(n);
  if (qquery != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      bound[i] = qs->LowerBound2(*qquery, range.begin + i);
    }
    stats->quantized_bound_computations += n;
    stats->bytes_scanned_quantized += n * qs->row_bytes();
  } else {
    prefix.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const double* row = rows.Acquire(range.begin + i);
      if (row == nullptr) return false;
      prefix[i].Accumulate(row, t, 0, s0);
      bound[i] = prefix[i].Total();
    }
    stats->bound_computations += n;
    stats->bytes_scanned_prefix += n * s0 * sizeof(double);
  }

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&bound](size_t a, size_t b) {
    if (bound[a] != bound[b]) return bound[a] < bound[b];
    return a < b;
  });

  best->reserve(k);
  size_t worst_pos = 0;
  auto recompute_worst = [best, &worst_pos]() {
    worst_pos = 0;
    for (size_t p = 1; p < best->size(); ++p) {
      if ((*best)[p] > (*best)[worst_pos]) worst_pos = p;
    }
  };

  for (size_t local_idx : order) {
    const double b = bound[local_idx];
    if (best->size() == k && b > (*best)[worst_pos].first) break;

    const size_t idx = range.begin + local_idx;
    const double* row = rows.Acquire(idx);
    if (row == nullptr) return false;
    // Float mode resumes the stored prefix; int8 mode starts from zero.
    SquaredDistanceAccumulator acc;
    size_t j = 0;
    if (qquery == nullptr) {
      acc = prefix[local_idx];
      j = s0;
    }
    acc.Accumulate(row, t, j, dim);
    ++stats->candidates_refined;
    ++stats->full_distance_computations;
    stats->bytes_scanned_refine += (dim - j) * sizeof(double);

    const double d2 = acc.Total();
    if (best->size() < k) {
      best->emplace_back(d2, idx);
      if (best->size() == k) recompute_worst();
    } else if (std::pair(d2, idx) < (*best)[worst_pos]) {
      (*best)[worst_pos] = {d2, idx};
      recompute_worst();
    }
  }
  return true;
}

// The serial sharded driver around FullSortCascadeShard, as the stores run
// it with no pool: shards in order, one accessor from make_rows() each,
// then the k-smallest merge. Returns false iff an accessor failed.
template <typename MakeRows>
bool FullSortCascadeKnn(MakeRows make_rows, size_t n,
                        std::span<const double> target, size_t k,
                        const CascadeOptions& options,
                        const QuantizedStore* qs, size_t shards,
                        std::vector<std::pair<size_t, double>>* out,
                        CascadeStats* stats) {
  k = std::min(k, n);
  QuantizedStore::EncodedQuery qquery;
  if (qs != nullptr) qquery = qs->EncodeQuery(target);
  std::vector<std::pair<double, size_t>> merged;
  for (const ShardRange& range : MakeShards(n, shards)) {
    auto rows = make_rows();
    std::vector<std::pair<double, size_t>> local;
    if (!FullSortCascadeShard(rows, target.data(), target.size(), k, options,
                              qs, qs != nullptr ? &qquery : nullptr, range,
                              &local, stats)) {
      return false;
    }
    merged.insert(merged.end(), local.begin(), local.end());
  }
  knn_internal::KeepKSmallest(&merged, k);
  *out = knn_internal::ToOutput(std::move(merged));
  return true;
}

inline void ExpectSameStats(const CascadeStats& got, const CascadeStats& want) {
  EXPECT_EQ(got.quantized_bound_computations,
            want.quantized_bound_computations);
  EXPECT_EQ(got.bound_computations, want.bound_computations);
  EXPECT_EQ(got.candidates_refined, want.candidates_refined);
  EXPECT_EQ(got.full_distance_computations, want.full_distance_computations);
  EXPECT_EQ(got.bytes_scanned_quantized, want.bytes_scanned_quantized);
  EXPECT_EQ(got.bytes_scanned_prefix, want.bytes_scanned_prefix);
  EXPECT_EQ(got.bytes_scanned_refine, want.bytes_scanned_refine);
  EXPECT_EQ(got.bytes_read_disk, want.bytes_read_disk);
  EXPECT_EQ(got.buffer_pool_hits, want.buffer_pool_hits);
  EXPECT_EQ(got.buffer_pool_misses, want.buffer_pool_misses);
  EXPECT_EQ(got.buffer_pool_evictions, want.buffer_pool_evictions);
}

inline void ExpectSameAnswer(const std::vector<std::pair<size_t, double>>& got,
                             const std::vector<std::pair<size_t, double>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first) << "rank " << i;
    EXPECT_EQ(got[i].second, want[i].second) << "rank " << i;
  }
}

// Rows built to make the walk's order a tie storm broken only by index:
//   - a spread of rows over a decaying spectrum;
//   - a cluster around targets[0] that equals it on the first kPrefixDim
//     dims (float prefix bound exactly 0) and differs far below the int8
//     step after that (level −1 bound clamped to 0.0);
//   - kCopies copies each of kDistinct rows (bit-equal bounds and d^2);
// interleaved by a fixed permutation, so ties straddle shard boundaries.
// targets[0] is the cluster centre, targets[1] a duplicated row, targets[2]
// a fresh draw from the spectrum.
struct GoldenCollection {
  static constexpr size_t kDim = 24;
  static constexpr size_t kPrefixDim = 8;  // CascadeOptions' default
  static constexpr size_t kSpread = 1200;
  static constexpr size_t kCluster = 1000;
  static constexpr size_t kDistinct = 8;
  static constexpr size_t kCopies = 40;

  std::vector<std::vector<double>> rows;
  std::vector<std::vector<double>> targets;

  static GoldenCollection Make() {
    std::mt19937_64 rng(20261017);
    std::uniform_real_distribution<double> unit(-1.0, 1.0);
    auto draw = [&] {
      std::vector<double> x(kDim);
      for (size_t j = 0; j < kDim; ++j) {
        x[j] = unit(rng) * std::exp(-0.15 * static_cast<double>(j));
      }
      return x;
    };
    GoldenCollection c;
    const std::vector<double> centre = draw();
    for (size_t i = 0; i < kSpread; ++i) c.rows.push_back(draw());
    for (size_t i = 0; i < kCluster; ++i) {
      std::vector<double> x = centre;
      for (size_t j = kPrefixDim; j < kDim; ++j) x[j] += 1e-6 * unit(rng);
      c.rows.push_back(std::move(x));
    }
    std::vector<std::vector<double>> distinct;
    for (size_t d = 0; d < kDistinct; ++d) distinct.push_back(draw());
    for (size_t copy = 0; copy < kCopies; ++copy) {
      for (const std::vector<double>& x : distinct) c.rows.push_back(x);
    }
    // Fisher-Yates with the engine's raw output: the same permutation on
    // every standard library.
    for (size_t i = c.rows.size() - 1; i > 0; --i) {
      std::swap(c.rows[i], c.rows[rng() % (i + 1)]);
    }
    c.targets = {centre, distinct[3], draw()};
    return c;
  }
};

}  // namespace cascade_reference
}  // namespace fuzzydb

#endif  // FUZZYDB_TESTS_CASCADE_REFERENCE_H_

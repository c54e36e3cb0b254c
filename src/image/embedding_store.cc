#include "image/embedding_store.h"

#include <algorithm>
#include <cassert>

#include "common/squared_distance.h"

namespace fuzzydb {

// The numeric kernels and the sharded driver (exact selection, cascade,
// merge, tie-breaks, counters) live in image/knn_kernel.h, shared with the
// disk-backed paged store; this file supplies only the RAM-resident row
// accessor and the copies in and out of the column groups.

namespace {

// Row access over the column groups; never fails. A row handle is its line
// in group 0; group g's line sits g * group_stride doubles further on.
struct GroupRows {
  const double* base;
  size_t group_stride;
  const double* Acquire(size_t i) const {
    return base + i * EmbeddingStore::kGroupDim;
  }
  void Accumulate(SquaredDistanceAccumulator& acc, const double* row,
                  const double* t, size_t begin, size_t end) const {
    acc.AccumulateGroups(row, group_stride, t, begin, end);
  }
  // A tile of kTile rows at a time, two groups per pass: each group's lines
  // stream in order while the tile's accumulators stay in L1, read and
  // written once per two lines. Row by row, jumping between groups, ran
  // 3-4x slower than the row-major scan on collections that fit in cache.
  bool PrefixDistances2(size_t first, const double* t, size_t end,
                        std::span<double> out) const {
    constexpr size_t kLine = EmbeddingStore::kGroupDim;
    constexpr size_t kTile = 16;
    for (size_t lo = 0; lo < out.size(); lo += kTile) {
      const size_t rows = std::min(kTile, out.size() - lo);
      SquaredDistanceAccumulator acc[kTile];
      size_t g = 0;
      for (; (g + 2) * kLine <= end; g += 2) {
        const double* a = base + g * group_stride + (first + lo) * kLine;
        const double* b = a + group_stride;
        const double* tg = t + g * kLine;
        for (size_t r = 0; r < rows; ++r) {
          acc[r].AccumulateBlock(a + r * kLine, tg);
          acc[r].AccumulateBlock(b + r * kLine, tg + kLine);
        }
      }
      for (; g * kLine < end; ++g) {
        const double* lines = base + g * group_stride + (first + lo) * kLine;
        const double* tg = t + g * kLine;
        const size_t width = std::min(kLine, end - g * kLine);
        if (width == kLine) {
          for (size_t r = 0; r < rows; ++r) {
            acc[r].AccumulateBlock(lines + r * kLine, tg);
          }
        } else {
          for (size_t r = 0; r < rows; ++r) {
            acc[r].Accumulate(lines + r * kLine, tg, 0, width);
          }
        }
      }
      for (size_t r = 0; r < rows; ++r) out[lo + r] = acc[r].Total();
    }
    return true;
  }
  Status status() const { return Status::OK(); }
};

GroupRows RowsOf(const EmbeddingStore& store) {
  return {store.Line(0, 0), store.size() * EmbeddingStore::kGroupDim};
}

}  // namespace

Result<EmbeddingStore> EmbeddingStore::Build(
    const QuadraticFormDistance& qfd, const std::vector<Histogram>& database) {
  if (database.empty()) return Status::InvalidArgument("empty database");
  const size_t k = qfd.dimension();
  for (const Histogram& h : database) {
    if (h.size() != k) {
      return Status::InvalidArgument("histogram has wrong bin count");
    }
  }
  EmbeddingStore store(database.size(), k);
  std::vector<double> row(k);
  for (size_t i = 0; i < database.size(); ++i) {
    qfd.EmbedInto(database[i], row);
    store.SetRow(i, row);
  }
  store.BuildQuantized();
  return store;
}

void EmbeddingStore::CopyRow(size_t i, std::span<double> out) const {
  assert(i < size_ && out.size() == dim_);
  for (size_t g = 0; g * kGroupDim < dim_; ++g) {
    const size_t first = g * kGroupDim;
    std::copy_n(Line(i, g), std::min(kGroupDim, dim_ - first),
                out.begin() + static_cast<long>(first));
  }
}

void EmbeddingStore::SetRow(size_t i, std::span<const double> row) {
  assert(i < size_ && row.size() == dim_);
  for (size_t g = 0; g * kGroupDim < dim_; ++g) {
    const size_t first = g * kGroupDim;
    std::copy_n(row.begin() + static_cast<long>(first),
                std::min(kGroupDim, dim_ - first),
                data_.data() + LineStart(i, g));
  }
}

double EmbeddingStore::Distance(size_t i,
                                std::span<const double> target) const {
  assert(i < size_ && target.size() == dim_);
  SquaredDistanceAccumulator acc;
  AccumulateRow(i, target.data(), 0, dim_, &acc);
  return std::sqrt(acc.Total());
}

void EmbeddingStore::BatchDistances(std::span<const double> target,
                                    std::span<double> out, ThreadPool* pool,
                                    size_t shards) const {
  assert(target.size() == dim_ && out.size() == size_);
  const double* FUZZYDB_RESTRICT t = target.data();
  const knn_internal::ShardPlan plan =
      knn_internal::ResolveShards(size_, pool, shards);
  knn_internal::ForEachShard(
      plan, [this] { return RowsOf(*this); },
      [&](auto& rows, size_t s) {
        const ShardRange range = plan.ranges[s];
        const std::span<double> mine = out.subspan(range.begin, range.size());
        rows.PrefixDistances2(range.begin, t, dim_, mine);
        for (double& d : mine) d = std::sqrt(d);
        return true;
      });
}

std::vector<std::pair<size_t, double>> EmbeddingStore::ExactKnn(
    std::span<const double> target, size_t k, ThreadPool* pool,
    size_t shards) const {
  assert(target.size() == dim_);
  return knn_internal::ShardedKnn(
             size_, k, pool, shards,
             [this] { return RowsOf(*this); },
             [&](auto& rows, ShardRange range, auto* best, CascadeStats*) {
               return knn_internal::ExactKnnShard(rows, target.data(), dim_,
                                                  k, range, best);
             },
             /*stats=*/nullptr)
      .value();
}

std::vector<std::pair<size_t, double>> EmbeddingStore::CascadeKnn(
    std::span<const double> target, size_t k, const CascadeOptions& options,
    CascadeStats* stats, ThreadPool* pool, size_t shards) const {
  assert(target.size() == dim_);
  // Encode the target against the int8 tier once per query; the encoding is
  // read-only afterwards, so every shard safely shares it.
  const QuantizedStore* qs =
      options.use_quantized && has_quantized() ? quantized_.get() : nullptr;
  QuantizedStore::EncodedQuery qquery;
  if (qs != nullptr) qquery = qs->EncodeQuery(target);
  return knn_internal::ShardedKnn(
             size_, k, pool, shards,
             [this] { return RowsOf(*this); },
             [&](auto& rows, ShardRange range, auto* best,
                 CascadeStats* shard_stats) {
               return knn_internal::CascadeShard(
                   rows, target.data(), dim_, k, options, qs,
                   qs != nullptr ? &qquery : nullptr, range, best,
                   shard_stats);
             },
             stats)
      .value();
}

}  // namespace fuzzydb

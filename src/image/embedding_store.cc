#include "image/embedding_store.h"

#include <algorithm>
#include <cassert>

#include "common/squared_distance.h"

namespace fuzzydb {

// The numeric kernels and the sharded driver (exact selection, cascade,
// merge, tie-breaks, counters) live in image/knn_kernel.h, shared with the
// disk-backed paged store; this file supplies only the RAM-resident row
// accessor.

namespace {

// Zero-cost row access over the contiguous aligned buffer; never fails.
struct DirectRows {
  const double* base;
  size_t stride;
  const double* Acquire(size_t i) const { return base + i * stride; }
  Status status() const { return Status::OK(); }
};

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
  for (size_t i = 0; i < database.size(); ++i) {
    qfd.EmbedInto(database[i], store.MutableRow(i));
  }
  store.BuildQuantized();
  return store;
}

void EmbeddingStore::BatchDistances(std::span<const double> target,
                                    std::span<double> out, ThreadPool* pool,
                                    size_t shards) const {
  assert(target.size() == dim_ && out.size() == size_);
  const double* FUZZYDB_RESTRICT t = target.data();
  const std::vector<ShardRange> ranges =
      knn_internal::ResolveShards(size_, pool, shards);
  knn_internal::ForEachShard(
      pool, ranges.size(), [this] { return DirectRows{data_.data(), stride_}; },
      [&](auto& rows, size_t s) {
        for (size_t i = ranges[s].begin; i < ranges[s].end; ++i) {
          out[i] = std::sqrt(SquaredDistance(rows.Acquire(i), t, dim_));
        }
        return true;
      });
}

std::vector<std::pair<size_t, double>> EmbeddingStore::ExactKnn(
    std::span<const double> target, size_t k, ThreadPool* pool,
    size_t shards) const {
  assert(target.size() == dim_);
  return knn_internal::ShardedKnn(
             size_, k, pool, shards,
             [this] { return DirectRows{data_.data(), stride_}; },
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
      options.use_quantized && has_quantized() ? &quantized_ : nullptr;
  QuantizedStore::EncodedQuery qquery;
  if (qs != nullptr) qquery = qs->EncodeQuery(target);
  return knn_internal::ShardedKnn(
             size_, k, pool, shards,
             [this] { return DirectRows{data_.data(), stride_}; },
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

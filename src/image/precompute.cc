#include "image/precompute.h"

#include <algorithm>
#include <cassert>

#include "common/thread_pool.h"

namespace fuzzydb {

Result<PairwiseDistanceCache> PairwiseDistanceCache::Build(
    const ImageStore& store) {
  const size_t n = store.size();
  if (n < 2) return Status::InvalidArgument("need >= 2 images to cache");
  PairwiseDistanceCache cache;
  cache.n_ = n;
  cache.packed_.resize(n * (n - 1) / 2);
  // Distances come from the store's eigen-space embeddings: O(bins) per
  // pair via the batched kernel instead of an O(bins^2) quadratic form.
  // Row i only needs the j < i prefix, so each row's kernel runs over
  // exactly that prefix of the buffer and fills its disjoint slice of the
  // packed triangle — embarrassingly parallel across row shards, and
  // bit-identical to the serial fill at any shard count.
  const EmbeddingStore& embeddings = store.embeddings();
  ThreadPool* pool = ThreadPool::Shared();
  const std::vector<ShardRange> shards =
      MakeShards(n - 1, std::min<size_t>(pool->executors(), n - 1));
  pool->ParallelFor(shards.size(), [&](size_t s) {
    std::vector<double> target(embeddings.dim());
    std::vector<double> row(n);
    for (size_t i = shards[s].begin + 1; i < shards[s].end + 1; ++i) {
      embeddings.CopyRow(i, target);
      embeddings.BatchDistances(target, row);
      std::copy(row.begin(), row.begin() + static_cast<long>(i),
                cache.packed_.begin() + static_cast<long>(i * (i - 1) / 2));
    }
  });
  return cache;
}

double PairwiseDistanceCache::Distance(size_t i, size_t j) const {
  assert(i < n_ && j < n_);
  if (i == j) return 0.0;
  if (i < j) std::swap(i, j);
  return packed_[i * (i - 1) / 2 + j];
}

std::vector<std::pair<size_t, double>> PairwiseDistanceCache::Nearest(
    size_t i, size_t k) const {
  assert(i < n_);
  std::vector<std::pair<size_t, double>> all;
  all.reserve(n_ - 1);
  for (size_t j = 0; j < n_; ++j) {
    if (j != i) all.emplace_back(j, Distance(i, j));
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(k), all.end(),
                    [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second < b.second;
                      return a.first < b.first;
                    });
  all.resize(k);
  return all;
}

}  // namespace fuzzydb

#include "storage/paged_store.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/squared_distance.h"

namespace fuzzydb {
namespace storage {

namespace {

constexpr uint64_t kNoPage = ~uint64_t{0};

// The paged RowAccessor (see image/knn_kernel.h): holds one pinned page at
// a time and swaps pins on page crossings. One instance per shard, one
// thread each; the pool underneath is what's shared.
class PagedRows {
 public:
  PagedRows(const ColumnFile& file, BufferPool& pool, size_t readahead)
      : file_(file), pool_(pool), rows_per_page_(file.rows_per_page()),
        stride_(file.stride()), readahead_(readahead) {}

  const double* Acquire(size_t i) {
    const uint64_t page = i / rows_per_page_;
    if (page != current_page_) {
      if (readahead_ > 0 &&
          (current_page_ == kNoPage || page % readahead_ == 0)) {
        // Advice, not I/O: the kernel may prefetch into its own page cache;
        // the pool's budget is untouched.
        file_.Advise(page, readahead_);
      }
      Result<PageHandle> fetched = pool_.Fetch(page);
      if (!fetched.ok()) {
        status_ = fetched.status();
        return nullptr;
      }
      handle_ = std::move(fetched).value();
      current_page_ = page;
    }
    return handle_.doubles() + (i - page * rows_per_page_) * stride_;
  }

  /// One contiguous pass: page rows are row-major.
  void Accumulate(SquaredDistanceAccumulator& acc, const double* row,
                  const double* t, size_t begin, size_t end) const {
    acc.Accumulate(row, t, begin, end);
  }

  /// Row by row, one contiguous pass each.
  bool PrefixDistances2(size_t first, const double* t, size_t end,
                        std::span<double> out) {
    for (size_t r = 0; r < out.size(); ++r) {
      const double* row = Acquire(first + r);
      if (row == nullptr) return false;
      out[r] = SquaredDistance(row, t, end);
    }
    return true;
  }

  /// The error that made Acquire return nullptr (OK until then).
  const Status& status() const { return status_; }

 private:
  const ColumnFile& file_;
  BufferPool& pool_;
  const size_t rows_per_page_;
  const size_t stride_;
  const size_t readahead_;
  uint64_t current_page_ = kNoPage;
  PageHandle handle_;
  Status status_;
};

// The query boundary: a target must hold dim() finite doubles. A wrong
// size would read past the span, and a NaN distance breaks the strict weak
// order the top-k heaps need.
Status CheckTarget(std::span<const double> target, size_t dim) {
  if (target.size() != dim) {
    return Status::InvalidArgument("target has " +
                                   std::to_string(target.size()) +
                                   " entries, store dim is " +
                                   std::to_string(dim));
  }
  for (size_t j = 0; j < dim; ++j) {
    if (!std::isfinite(target[j])) {
      return Status::InvalidArgument("target entry " + std::to_string(j) +
                                     " is not finite");
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<PagedEmbeddingStore>> PagedEmbeddingStore::Open(
    const std::string& path, PagedStoreOptions options) {
  auto opened = ColumnFile::Open(path);
  if (!opened.ok()) return opened.status();

  auto store = std::unique_ptr<PagedEmbeddingStore>(new PagedEmbeddingStore());
  store->file_ = std::move(opened).value();
  store->options_ = options;

  auto quantized = store->file_->LoadQuantized();
  if (!quantized.ok()) return quantized.status();
  store->quantized_ = std::move(quantized).value();

  BufferPoolOptions pool_options;
  pool_options.page_bytes = store->file_->page_bytes();
  pool_options.capacity_pages =
      std::max<size_t>(1, options.pool_bytes / pool_options.page_bytes);
  // The fetcher shares ownership of the file: a pool load that is in
  // flight when the store is destroyed still has a live descriptor.
  std::shared_ptr<ColumnFile> file = store->file_;
  store->pool_ = std::make_unique<BufferPool>(
      pool_options, [file](uint64_t page, std::span<char> dest) {
        return file->ReadPage(page, dest);
      });
  return store;
}

void PagedEmbeddingStore::Close() {
  if (pool_ != nullptr) pool_->Close();
  if (file_ != nullptr) file_->Close();
}

Result<double> PagedEmbeddingStore::Distance(std::span<const double> target,
                                             size_t i) const {
  FUZZYDB_RETURN_NOT_OK(CheckTarget(target, dim()));
  if (i >= size()) return Status::OutOfRange("row index past store size");
  PagedRows rows(*file_, *pool_, /*readahead=*/0);
  const double* row = rows.Acquire(i);
  if (row == nullptr) return rows.status();
  return std::sqrt(SquaredDistance(row, target.data(), dim()));
}

Status PagedEmbeddingStore::BatchDistances(std::span<const double> target,
                                           std::span<double> out,
                                           ThreadPool* pool,
                                           size_t shards) const {
  FUZZYDB_RETURN_NOT_OK(CheckTarget(target, dim()));
  if (out.size() != size()) {
    return Status::InvalidArgument("out has " + std::to_string(out.size()) +
                                   " entries, store size is " +
                                   std::to_string(size()));
  }
  const double* FUZZYDB_RESTRICT t = target.data();
  const size_t d = dim();
  const std::vector<ShardRange> ranges =
      knn_internal::ResolveShards(size(), pool, shards);
  return knn_internal::ForEachShard(
      pool, ranges.size(),
      [this] { return PagedRows(*file_, *pool_, options_.readahead_pages); },
      [&](PagedRows& rows, size_t s) {
        const std::span<double> mine =
            out.subspan(ranges[s].begin, ranges[s].size());
        if (!rows.PrefixDistances2(ranges[s].begin, t, d, mine)) return false;
        for (double& dist : mine) dist = std::sqrt(dist);
        return true;
      });
}

Result<std::vector<std::pair<size_t, double>>> PagedEmbeddingStore::ExactKnn(
    std::span<const double> target, size_t k, ThreadPool* pool,
    size_t shards) const {
  FUZZYDB_RETURN_NOT_OK(CheckTarget(target, dim()));
  return knn_internal::ShardedKnn(
      size(), k, pool, shards,
      [this] { return PagedRows(*file_, *pool_, options_.readahead_pages); },
      [&](PagedRows& rows, ShardRange range, auto* best, CascadeStats*) {
        return knn_internal::ExactKnnShard(rows, target.data(), dim(), k,
                                           range, best);
      },
      /*stats=*/nullptr);
}

Result<std::vector<std::pair<size_t, double>>> PagedEmbeddingStore::CascadeKnn(
    std::span<const double> target, size_t k, const CascadeOptions& options,
    CascadeStats* stats, ThreadPool* pool, size_t shards) const {
  FUZZYDB_RETURN_NOT_OK(CheckTarget(target, dim()));
  const QuantizedStore* qs =
      options.use_quantized && has_quantized() ? &quantized_ : nullptr;
  QuantizedStore::EncodedQuery qquery;
  if (qs != nullptr) qquery = qs->EncodeQuery(target);

  const BufferPoolStats before = pool_->stats();
  Result<std::vector<std::pair<size_t, double>>> answer =
      knn_internal::ShardedKnn(
          size(), k, pool, shards,
          [this] {
            return PagedRows(*file_, *pool_, options_.readahead_pages);
          },
          [&](PagedRows& rows, ShardRange range, auto* best,
              CascadeStats* shard_stats) {
            return knn_internal::CascadeShard(
                rows, target.data(), dim(), k, options, qs,
                qs != nullptr ? &qquery : nullptr, range, best, shard_stats);
          },
          stats);
  if (answer.ok() && stats != nullptr) {
    const BufferPoolStats after = pool_->stats();
    stats->bytes_read_disk += after.bytes_read_disk - before.bytes_read_disk;
    stats->buffer_pool_hits += after.hits - before.hits;
    stats->buffer_pool_misses += after.misses - before.misses;
    stats->buffer_pool_evictions += after.evictions - before.evictions;
  }
  return answer;
}

Result<EmbeddingStore> PagedEmbeddingStore::LoadToMemory() const {
  EmbeddingStore store(size(), dim());
  // Page-by-page sequential copy through a private buffer, bypassing the
  // pool (a one-shot full scan would only churn its frames). Each page row
  // is scattered straight into the store's column groups.
  std::vector<double> page(file_->page_bytes() / sizeof(double));
  const std::span<char> page_bytes(reinterpret_cast<char*>(page.data()),
                                   file_->page_bytes());
  const size_t rpp = file_->rows_per_page();
  for (uint64_t p = 0; p < file_->num_pages(); ++p) {
    file_->Advise(p + 1, options_.readahead_pages);
    FUZZYDB_RETURN_NOT_OK(ReadPage(p, page_bytes));
    const size_t begin = p * rpp;
    const size_t n = std::min(rpp, size() - begin);
    for (size_t i = 0; i < n; ++i) {
      store.SetRow(begin + i, {page.data() + i * stride(), dim()});
    }
  }
  if (has_quantized()) {
    store.SetQuantized(quantized_);
  } else {
    store.BuildQuantized();
  }
  return store;
}

Status PagedEmbeddingStore::ReadPage(uint64_t page,
                                     std::span<char> dest) const {
  return file_->ReadPage(page, dest);
}

}  // namespace storage
}  // namespace fuzzydb

// The disk-backed embedding store (DESIGN §3k): a column file behind a
// buffer pool, serving the same query surface as the RAM-resident
// EmbeddingStore — and, by construction, the same answers, bit for bit.
//
// Tier placement is deliberate and asymmetric:
//   - the int8 quantized companion (cascade level −1, ~1 byte/dim + 8B
//     residual per row) is loaded RAM-resident at Open() and never pages —
//     it is the tier whose whole point is full-collection scans, and it is
//     8x smaller than the float rows;
//   - the float rows (8 bytes/dim, cache-line-padded stride) live on disk
//     and enter memory only through the pool: sequential scans walk pages
//     in order (with readahead advice to the kernel), refinement probes pin
//     single pages.
// A warm cascade query therefore reads *zero* disk bytes at level −1 and
// touches disk only for survivor pages the pool has not retained — that
// claim is measured (CascadeStats::bytes_read_disk), not asserted.
//
// Every query method returns Status/Result: disk I/O can fail in ways RAM
// access cannot, and the kernels abandon a shard cleanly (no partial
// answers) when a page read errors out.

#ifndef FUZZYDB_STORAGE_PAGED_STORE_H_
#define FUZZYDB_STORAGE_PAGED_STORE_H_

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "image/embedding_store.h"
#include "image/knn_kernel.h"
#include "image/quantized_store.h"
#include "storage/buffer_pool.h"
#include "storage/column_file.h"

namespace fuzzydb {
namespace storage {

struct PagedStoreOptions {
  /// Buffer-pool budget in bytes; rounded down to whole pages of the
  /// file's page size, floor of one page. This is the only RAM the float
  /// rows may occupy.
  size_t pool_bytes = 256ull * 1024 * 1024;
  /// Pages of kernel readahead advice issued ahead of sequential scans
  /// (0 disables). Advice only — the pool's budget is never exceeded.
  size_t readahead_pages = 8;
};

/// Read-only view over one column file. Query methods are thread-safe and
/// may run concurrently (the pool synchronizes frame state; each shard
/// pins at most one page at a time, so any pool of >= shard-count pages
/// can make progress). A query racing Close() either answers or fails
/// FailedPrecondition; destroying the store requires quiescence, like the
/// RAM store's destructor.
class PagedEmbeddingStore {
 public:
  static Result<std::unique_ptr<PagedEmbeddingStore>> Open(
      const std::string& path, PagedStoreOptions options = {});

  size_t size() const { return file_->count(); }
  size_t dim() const { return file_->dim(); }
  size_t stride() const { return file_->stride(); }
  /// The file's generation stamp — the serving layer's cache key component.
  uint64_t version() const { return file_->store_version(); }
  /// Eigenbasis metadata recorded at ingest.
  const std::vector<double>& metadata() const { return file_->metadata(); }

  /// The RAM-resident int8 tier, shared immutable state: null when the file
  /// has none or once Close() has run. A holder (a query in flight, the
  /// RAM store LoadToMemory built) keeps it alive past Close().
  std::shared_ptr<const QuantizedStore> quantized() const;
  bool has_quantized() const { return quantized() != nullptr; }

  const BufferPool& pool() const { return *pool_; }
  BufferPoolStats pool_stats() const { return pool_->stats(); }

  // Every query takes a target of dim() finite doubles and returns
  // InvalidArgument otherwise. `pool` and `shards` split the rows as the
  // RAM store's methods do, with answers bit-identical at every shard
  // count; with neither, the query runs one serial pass at every size
  // (unlike the RAM store's default, DESIGN §3c).

  /// d(Row(i), target) — a single-row probe pinning one page.
  Result<double> Distance(std::span<const double> target, size_t i) const;

  /// out[i] = |Row(i) - target|_2 for every stored row (`out` must have
  /// size() entries); sequential paged passes. Bit-identical to
  /// EmbeddingStore::BatchDistances.
  Status BatchDistances(std::span<const double> target, std::span<double> out,
                        ThreadPool* pool = nullptr, size_t shards = 0) const;

  /// Exact top-k; same contract (and bits) as EmbeddingStore::ExactKnn.
  Result<std::vector<std::pair<size_t, double>>> ExactKnn(
      std::span<const double> target, size_t k, ThreadPool* pool = nullptr,
      size_t shards = 0) const;

  /// Cascaded top-k; same contract (and bits) as
  /// EmbeddingStore::CascadeKnn. On top of the arithmetic counters (which
  /// are deterministic and equal to the RAM store's at the same shard
  /// count), `stats` receives this query's buffer-pool deltas:
  /// bytes_read_disk and pool hit/miss/eviction counts. Pool deltas are
  /// exact when queries run one at a time and attribution-approximate under
  /// concurrent queries (the pool's counters are global).
  Result<std::vector<std::pair<size_t, double>>> CascadeKnn(
      std::span<const double> target, size_t k,
      const CascadeOptions& options = {}, CascadeStats* stats = nullptr,
      ThreadPool* pool = nullptr, size_t shards = 0) const;

  /// Materializes the whole column as a RAM-resident EmbeddingStore (each
  /// page row scattered straight into the store's column groups, no
  /// row-major copy). Its quantized companion is this store's loaded tier,
  /// shared, not copied (one encoding routine makes the persisted tier
  /// byte-identical to a rebuilt one); it is built from the rows only when
  /// the file has none. After Close() the RAM store holds the only copy.
  /// For consumers that genuinely need residency, e.g. the GEMINI R-tree
  /// build; everything else should query through paging.
  Result<EmbeddingStore> LoadToMemory() const;

  /// Raw page read straight from the file, bypassing the pool (used by the
  /// full-scan copy and the paging-equivalence auditor).
  Status ReadPage(uint64_t page, std::span<char> dest) const;

  /// Closes the pool and the file and drops this store's reference to the
  /// int8 tier. Outstanding PageHandles and tier references stay valid;
  /// subsequent queries fail FailedPrecondition. Idempotent.
  void Close();

 private:
  PagedEmbeddingStore() = default;

  std::shared_ptr<ColumnFile> file_;
  std::unique_ptr<BufferPool> pool_;
  mutable Mutex tier_mu_;
  std::shared_ptr<const QuantizedStore> quantized_ GUARDED_BY(tier_mu_);
  PagedStoreOptions options_;
};

}  // namespace storage
}  // namespace fuzzydb

#endif  // FUZZYDB_STORAGE_PAGED_STORE_H_

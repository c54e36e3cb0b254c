// Paging-equivalence auditor (DESIGN §3k): refutes, with witnesses, any
// divergence between a disk-backed PagedEmbeddingStore and the RAM-resident
// EmbeddingStore over the same rows.
//
// The tentpole claim of the storage engine is that paging is a memory-
// hierarchy change, never a semantic one: at every page size, pool size,
// and shard count, the paged store answers bit-identically to the RAM
// store. The shared kernels (image/knn_kernel.h) make that true by
// construction for the arithmetic; this auditor checks the whole stack —
// file geometry, row bytes, the quantized tier's persisted parts, batch
// distances, exact and cascaded top-k including tie order, and the
// determinism of the paged store against itself across pool/shard
// configurations. Auditors refute, never prove; every finding carries the
// first diverging row/rank and both values.

#ifndef FUZZYDB_ANALYSIS_STORAGE_AUDIT_H_
#define FUZZYDB_ANALYSIS_STORAGE_AUDIT_H_

#include <span>
#include <vector>

#include "analysis/audit.h"
#include "image/embedding_store.h"
#include "storage/paged_store.h"

namespace fuzzydb {

struct StorageAuditOptions {
  /// Query targets to compare under (full-dimension embeddings). At least
  /// one is required.
  std::vector<std::vector<double>> targets;
  size_t k = 10;
  /// Shard counts to sweep (serial is always included).
  std::vector<size_t> shard_counts = {2, 3};
  /// Cascade settings exercised with and without the quantized tier.
  CascadeOptions cascade;
};

/// Audits `paged` against `ram` (which must hold the same rows, e.g. from
/// PagedEmbeddingStore::LoadToMemory or the original ingest source):
///   - geometry: size/dim/stride agreement, stride = RowStride(dim);
///   - rows: every padded on-disk row bit-equal to the RAM row's column-
///     group lines, whose padding lanes are +0.0;
///   - quantized tier: the persisted and RAM tiers' scales/residuals/codes
///     equal those of a tier rebuilt from the RAM rows;
///   - BatchDistances / ExactKnn / CascadeKnn: bitwise-equal outputs
///     (indices, order, and double bits) for every target, serial and at
///     every shard count in `options`, cascade with quantized on and off;
///   - cascade work: the arithmetic CascadeStats counters equal the RAM
///     store's run at the same shard count;
///   - paged-vs-paged determinism across shard counts.
AuditReport AuditPagingEquivalence(const storage::PagedEmbeddingStore& paged,
                                   const EmbeddingStore& ram,
                                   const StorageAuditOptions& options);

}  // namespace fuzzydb

#endif  // FUZZYDB_ANALYSIS_STORAGE_AUDIT_H_

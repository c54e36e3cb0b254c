// The eigen-space embedding layer for the quadratic-form color distance
// (paper §2.1, formula (2) generalized).
//
// At ingest every histogram x is projected once into eigen-space,
// e_j(x) = sqrt(λ_j)·⟨x, v_j⟩ over all k eigenpairs of B = P A P — an O(k^2)
// cost paid once per object. The embeddings live in one cache-line-aligned
// buffer laid out as column groups (DESIGN §3c): group g holds dims
// [8g, 8g + 8) of every row, one 64-byte line per row, so a scan that reads
// only a prefix of the dimensions touches only the lines it uses. Query
// time then gets three things:
//
//   1. exact distances in O(k): d(x, y) = |e(x) - e(y)|_2, no allocation;
//   2. a *cascade* of lower bounds: the eigenvalues are sorted descending,
//      so the partial sum over any prefix of embedding dimensions already
//      lower-bounds d^2 — formula (2) is the s = 3 special case, and every
//      s in 1..k is a valid filter level with no false dismissals;
//   3. batched kernels over the groups that the compiler can keep in
//      registers / vectorize (one aligned 8-double line per row per group);
//      an s-dim prefix scan reads ceil(s / 8) lines per row, not the row.
//
// The paper's distance-bounding filter ([HSE+95]) keeps a short summary x̂
// of each histogram with a cheap distance d̂ such that
//
//   d(x, y) >= d̂(x̂, ŷ)   for all x, y          (paper formula (2)).
//
// Here x̂ is the first s embedding coordinates, x̂_j = sqrt(λ_j)·⟨x, v_j⟩
// over the top-s eigenpairs, and d̂ is Euclidean distance, so
// d(x,y)^2 = Σ_j λ_j⟨x-y, v_j⟩^2 >= Σ_{j<s} λ_j⟨x-y, v_j⟩^2 = d̂(x̂,ŷ)^2;
// s = 3 is the paper's "dimension 3 color vector". The captured energy
// Σ_{j<s} λ_j / Σ_j λ_j is the share of the quadratic form's eigenmass the
// summary keeps; the filter prunes better as it approaches 1.
//
// CascadeKnn() exploits (2) end to end, and is the paper's two-level
// filter: a cheap bound for every object orders the candidates, each
// candidate is refined straight to its full distance, and the walk stops
// once the next bound exceeds the current k-th best. The options
// {.prefix_dim = s, .use_quantized = false} bound every object by d̂ over
// an s-dim prefix; by default the int8 level −1 (image/quantized_store.h)
// bounds them instead.

#ifndef FUZZYDB_IMAGE_EMBEDDING_STORE_H_
#define FUZZYDB_IMAGE_EMBEDDING_STORE_H_

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/squared_distance.h"
#include "common/thread_pool.h"
#include "image/knn_kernel.h"
#include "image/quadratic_distance.h"
#include "image/quantized_store.h"

namespace fuzzydb {

// CascadeStats and CascadeOptions live in image/knn_kernel.h, shared with
// the disk-backed storage::PagedEmbeddingStore — both stores execute the
// same templated kernels, which is what makes their answers bit-identical.

/// The eigen-space embeddings of a collection: row i is the full k-dim
/// embedding of object i. Rows are padded to a whole number of cache lines
/// (stride() >= dim() doubles, zero pad) and stored as stride() / 8 column
/// groups: group g is one contiguous, 64-byte-aligned array holding dims
/// [8g, 8g + 8) of every row, one line per row. No row is contiguous, so
/// rows go in and out by copy (SetRow, CopyRow) and distances to a row come
/// from AccumulateRow / Distance, which leave the same bits as the
/// contiguous kernels over a copy of the row.
class EmbeddingStore {
 public:
  /// Doubles per group line: one 64-byte cache line, and the lane width of
  /// SquaredDistanceAccumulator, which is what makes group-wise
  /// accumulation bit-identical to a contiguous one.
  static constexpr size_t kGroupDim = SquaredDistanceAccumulator::kLanes;
  static_assert(kGroupDim * sizeof(double) == AlignedBuffer::kAlignment);

  /// An empty store; usable instances come from Build() or the sizing
  /// constructor plus SetRow() fills.
  EmbeddingStore() = default;

  /// A zero-filled store for `count` embeddings of dimension `dim`
  /// (ingest-time API: fill rows via SetRow, then optionally
  /// BuildQuantized()).
  EmbeddingStore(size_t count, size_t dim)
      : size_(count), dim_(dim), stride_(RowStride(dim)),
        data_(count * stride_) {}

  /// Projects every histogram of `database` once (O(k^2) each) and builds
  /// the int8 companion tier.
  static Result<EmbeddingStore> Build(const QuadraticFormDistance& qfd,
                                      const std::vector<Histogram>& database);

  size_t size() const { return size_; }
  size_t dim() const { return dim_; }
  /// Padded doubles per row: dim() rounded up to a whole cache line, i.e.
  /// kGroupDim times the number of column groups.
  size_t stride() const { return stride_; }
  /// Column groups per row: stride() / kGroupDim.
  size_t groups() const { return stride_ / kGroupDim; }

  /// Row i's line in group g: its dims [8g, 8g + 8), 64-byte aligned; lanes
  /// past dim() are zero.
  const double* Line(size_t i, size_t g) const {
    return data_.data() + LineStart(i, g);
  }

  /// Copies row i's dim() doubles into `out` (out.size() == dim()).
  void CopyRow(size_t i, std::span<double> out) const;
  /// Writes row i from `row` (row.size() == dim()); the padding stays 0.
  void SetRow(size_t i, std::span<const double> row);

  /// Adds (row_i[j] - t[j])^2 for j in [begin, end) to `acc`, bit for bit
  /// as acc->Accumulate would over a contiguous copy of row i: any split of
  /// a row into ranges leaves the same accumulator.
  void AccumulateRow(size_t i, const double* t, size_t begin, size_t end,
                     SquaredDistanceAccumulator* acc) const {
    acc->AccumulateGroups(Line(i, 0), size_ * kGroupDim, t, begin, end);
  }
  /// |row_i - target|_2 over all dim() dims: the same bits as
  /// BatchDistances' out[i].
  double Distance(size_t i, std::span<const double> target) const;

  /// (Re)builds the int8 scalar-quantized companion from the current rows.
  /// Build() does this automatically; the sizing-constructor ingest path
  /// calls it once the rows are filled. O(size * dim); adds ~dim bytes per
  /// row of memory.
  void BuildQuantized() {
    SetQuantized(std::make_shared<const QuantizedStore>(QuantizedStore::Build(
        size_, dim_,
        [this](size_t i, std::span<double> out) { CopyRow(i, out); })));
  }
  /// Adopts `quantized` as the int8 companion, sharing it with whoever else
  /// holds it (a paged store's loaded tier, a copy of this store): the tier
  /// is immutable, so nothing is copied. It must encode the current rows,
  /// as a column file's persisted tier does.
  void SetQuantized(std::shared_ptr<const QuantizedStore> quantized) {
    quantized_ = std::move(quantized);
  }
  bool has_quantized() const {
    return quantized_ != nullptr && !quantized_->empty();
  }
  /// The int8 tier (empty() when not built).
  const QuantizedStore& quantized() const {
    static const QuantizedStore kNone;
    return quantized_ != nullptr ? *quantized_ : kNone;
  }

  /// The batched exact kernel: out[i] = |row_i - target|_2 for every
  /// stored object. `target` must be a full-dimension embedding (from
  /// QuadraticFormDistance::Embed) and `out` must have size() entries.
  /// Passes over the column groups, split into `shards` row ranges scanned
  /// concurrently on `pool` (one per pool executor when 0; serial without
  /// a pool). With neither, a store of at least 2 *
  /// knn_internal::kMinShardRows rows shards across ThreadPool::Shared()
  /// and a smaller one runs one serial pass (knn_internal::ResolveShards).
  /// Bit-identical at every shard count — rows are independent.
  void BatchDistances(std::span<const double> target, std::span<double> out,
                      ThreadPool* pool = nullptr, size_t shards = 0) const;

  /// Exact top-k by the batched kernel: k smallest distances, ascending,
  /// ties broken by index. O(n·k_dim) + selection. Sharded like
  /// BatchDistances: each shard selects its local k smallest (d^2, index)
  /// pairs and the merge keeps the global k smallest (knn_internal::
  /// ShardedKnn). Every row's d^2 comes from the same split-invariant
  /// kernel and the selection key is the same, so the result is
  /// bit-identical at any shard count, with or without a pool.
  std::vector<std::pair<size_t, double>> ExactKnn(
      std::span<const double> target, size_t k, ThreadPool* pool = nullptr,
      size_t shards = 0) const;

  /// The cascaded filter search. Identical results to ExactKnn() — same
  /// indices, same order, bit-identical distances (the partial sums
  /// accumulate in the same order as the batched kernel) — but full-depth
  /// refinements only for objects that are genuinely competitive.
  /// k = 0 returns an empty result; k > size() clamps. Sharded, every
  /// shard runs the full cascade on its own row range (local bounds, local
  /// ordering, local top-k) before the merge: answers stay bit-identical at
  /// any shard count, while `stats` (summed over shards in shard order,
  /// deterministic) may report more refinement work than one shard does
  /// because each shard prunes against its own local k-th best.
  std::vector<std::pair<size_t, double>> CascadeKnn(
      std::span<const double> target, size_t k,
      const CascadeOptions& options = {}, CascadeStats* stats = nullptr,
      ThreadPool* pool = nullptr, size_t shards = 0) const;

  /// Padded doubles per row for a given dim: dim rounded up to a whole
  /// cache line. The on-disk column format (src/storage) stores its rows
  /// row-major at this stride: each holds the same doubles and zero pad as
  /// the RAM row, but no longer aliases it, since RAM rows are split into
  /// column groups.
  static size_t RowStride(size_t dim) {
    constexpr size_t kDoublesPerLine =
        AlignedBuffer::kAlignment / sizeof(double);
    return (dim + kDoublesPerLine - 1) / kDoublesPerLine * kDoublesPerLine;
  }

 private:
  // Index in data_ of row i's line in group g.
  size_t LineStart(size_t i, size_t g) const {
    return (g * size_ + i) * kGroupDim;
  }

  size_t size_ = 0;
  size_t dim_ = 0;
  size_t stride_ = 0;
  AlignedBuffer data_;
  std::shared_ptr<const QuantizedStore> quantized_;  // null: not built
};

}  // namespace fuzzydb

#endif  // FUZZYDB_IMAGE_EMBEDDING_STORE_H_

// The shared kNN / cascade kernels and their sharded driver, templated over
// row access (DESIGN §3c, §3k).
//
// EmbeddingStore (RAM-resident rows) and storage::PagedEmbeddingStore
// (disk-resident rows behind a buffer pool) must return *bit-identical*
// answers: the paged store is a memory-hierarchy change, never a semantic
// one. The only robust way to guarantee that is for both stores to execute
// literally the same code in literally the same order — so the exact top-k
// selection, the cascade, and the driver that shards, merges
// and counts them live here as templates over a RowAccessor, and each store
// supplies only how a row is fetched and how its dims are laid out:
//
//   struct RowAccessor {
//     // Handle of row i (valid until the next Acquire on this accessor), or
//     // nullptr when the row cannot be read (I/O failure) — the kernel then
//     // abandons the shard and the driver surfaces the accessor's status().
//     // A RAM-resident store never fails.
//     const double* Acquire(size_t i);
//     // Adds (row[j] - t[j])^2 for j in [begin, end) to `acc`, where `row`
//     // is a handle from Acquire: the RAM store walks its column groups
//     // (SquaredDistanceAccumulator::AccumulateGroups), the paged store runs
//     // one contiguous Accumulate over its row-major page row. Both leave
//     // the same lane state for the same doubles.
//     void Accumulate(SquaredDistanceAccumulator& acc, const double* row,
//                     const double* t, size_t begin, size_t end) const;
//     // The scans' batch form: out[r] = the Total() of one Accumulate over
//     // [0, end) on row first + r, for every r < out.size(); false iff a
//     // row cannot be read. The RAM store walks a tile of rows across the
//     // column groups, so every group's lines stream in order; the paged
//     // store runs row by row.
//     bool PrefixDistances2(size_t first, const double* t, size_t end,
//                           std::span<double> out);
//     // Why Acquire returned nullptr; OK until it does.
//     Status status() const;
//   };
//
// Everything numeric — the split-invariant SquaredDistanceAccumulator, the
// (d^2, index) lexicographic selection, the strict-> early-termination rule,
// the quantized level −1 ordering — is shared, so a divergence between the
// two stores can only come from the doubles of the rows themselves, which
// the column-file format preserves exactly (doubles are written verbatim).
//
// One accessor instance is used per shard, by one thread; accessors
// themselves need no synchronization (the buffer pool underneath the paged
// accessor is thread-safe).

#ifndef FUZZYDB_IMAGE_KNN_KERNEL_H_
#define FUZZYDB_IMAGE_KNN_KERNEL_H_

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/contract.h"
#include "common/squared_distance.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "image/quantized_store.h"

namespace fuzzydb {

/// Counters from a cascaded search (shared by both store backends).
struct CascadeStats {
  /// Rows scanned by the int8 level −1 (0 when the tier is off or absent).
  size_t quantized_bound_computations = 0;
  /// Float prefix-bound evaluations: one per stored object when the
  /// quantized tier is off, none when it orders the walk.
  size_t bound_computations = 0;
  /// Candidates the walk visited, each refined to its exact distance.
  size_t candidates_refined = 0;
  /// The paper's full distance evaluations: one per refined candidate.
  size_t full_distance_computations = 0;
  /// Bytes actually read from the store's buffers, per level: the int8
  /// level −1 scan (codes + residuals), the float prefix bounds, and the
  /// refinements (the dims past the prefix in float mode, every dim after
  /// the int8 level). The bandwidth story of the quantized tier is measured
  /// here, not asserted.
  size_t bytes_scanned_quantized = 0;
  size_t bytes_scanned_prefix = 0;
  size_t bytes_scanned_refine = 0;
  /// Bytes the buffer pool read from disk during this search (0 for the
  /// RAM-resident store). With the quantized tier on, the level −1 scan is
  /// RAM-resident by design, so warm queries charge disk bytes only for
  /// survivor pages pulled into the pool for exact re-rank.
  size_t bytes_read_disk = 0;
  /// Buffer-pool traffic during this search (all 0 for the RAM store).
  size_t buffer_pool_hits = 0;
  size_t buffer_pool_misses = 0;
  size_t buffer_pool_evictions = 0;

  /// Adds another shard's (or level's) counters into this one.
  void Absorb(const CascadeStats& other) {
    quantized_bound_computations += other.quantized_bound_computations;
    bound_computations += other.bound_computations;
    candidates_refined += other.candidates_refined;
    full_distance_computations += other.full_distance_computations;
    bytes_scanned_quantized += other.bytes_scanned_quantized;
    bytes_scanned_prefix += other.bytes_scanned_prefix;
    bytes_scanned_refine += other.bytes_scanned_refine;
    bytes_read_disk += other.bytes_read_disk;
    buffer_pool_hits += other.buffer_pool_hits;
    buffer_pool_misses += other.buffer_pool_misses;
    buffer_pool_evictions += other.buffer_pool_evictions;
  }
};

/// Tuning knobs for CascadeKnn().
struct CascadeOptions {
  /// Float bound length s: the prefix scanned for every object when the
  /// int8 level −1 does not run (clamped to the embedding dimension).
  /// Deeper prefixes cost more per object but admit fewer candidates into
  /// refinement. Ignored when the int8 level runs.
  size_t prefix_dim = 8;
  /// Run the int8 level −1 when the store has its quantized companion
  /// (DESIGN §3g): the full-object scan reads 1-byte codes instead of the
  /// 8-byte float prefix. Never changes answers (the bound is admissible by
  /// construction), only costs; ignored when the companion was not built.
  bool use_quantized = true;
};

namespace knn_internal {

// Sorts pairs lexicographically and keeps the k smallest — the shared merge
// step of the sharded top-k paths. Selection runs on squared distances: the
// final sqrt can round two distinct d^2 to the same double, so comparing
// (d^2, index) keeps every path's tie-break identical.
inline void KeepKSmallest(std::vector<std::pair<double, size_t>>* pairs,
                          size_t k) {
  k = std::min(k, pairs->size());
  std::partial_sort(pairs->begin(), pairs->begin() + static_cast<long>(k),
                    pairs->end());
  pairs->resize(k);
}

inline std::vector<std::pair<size_t, double>> ToOutput(
    std::vector<std::pair<double, size_t>> best) {
  std::sort(best.begin(), best.end());
  std::vector<std::pair<size_t, double>> out;
  out.reserve(best.size());
  for (const auto& [d2, idx] : best) {
    out.emplace_back(idx, std::sqrt(d2));
  }
  return out;
}

// The contiguous row ranges a query over n rows runs on: `shards` of them,
// or one per pool executor when 0, or one when 0 and there is no pool;
// never more than n (and at least one, possibly empty).
inline std::vector<ShardRange> ResolveShards(size_t n, ThreadPool* pool,
                                             size_t shards) {
  if (shards == 0) shards = pool != nullptr ? pool->executors() : 1;
  return MakeShards(
      n, std::max<size_t>(1, std::min(shards, std::max<size_t>(n, 1))));
}

// The fan-out every sharded query shares: runs fn(rows, s) for every shard
// s — on `pool` when given, else serially in shard order — each with its
// own accessor from make_rows(), destroyed when its shard ends. fn returns
// false iff the accessor failed; the result is then the status of the
// first failing shard in shard order, deterministic unlike first-to-fail.
template <typename MakeRows, typename ShardFn>
Status ForEachShard(ThreadPool* pool, size_t shards, const MakeRows& make_rows,
                    const ShardFn& fn) {
  std::vector<Status> errors(shards);
  auto run = [&](size_t s) {
    auto rows = make_rows();
    if (!fn(rows, s)) errors[s] = rows.status();
  };
  if (pool != nullptr) {
    pool->ParallelFor(shards, run);
  } else {
    for (size_t s = 0; s < shards; ++s) run(s);
  }
  for (Status& error : errors) {
    if (!error.ok()) return std::move(error);
  }
  return Status::OK();
}

// Offers (d, i) to `heap`, a max-heap (std::push_heap order) holding the
// `capacity` lexicographically smallest (d, index) pairs offered so far.
// Pairs must be offered in ascending i: a d equal to the heap's maximum
// then loses its tie on index, so one compare against the top decides.
inline void OfferSmallest(std::vector<std::pair<double, size_t>>* heap,
                          size_t capacity, double d, size_t i) {
  if (heap->size() < capacity) {
    heap->emplace_back(d, i);
    std::push_heap(heap->begin(), heap->end());
  } else if (d < heap->front().first) {
    std::pop_heap(heap->begin(), heap->end());
    heap->back() = {d, i};
    std::push_heap(heap->begin(), heap->end());
  }
}

// Rows per scan slice: a bound pass fills this many bounds with one
// batched call (QuantizedStore::LowerBounds2Range or the accessor's
// PrefixDistances2), then selects over them while they are in L1.
constexpr size_t kBoundSlice = 4096;

// The exact top-k kernel restricted to rows [range.begin, range.end):
// fills the empty `best` with up to k local-best (d^2, index) pairs
// (unsorted; ToOutput sorts them). Returns false iff the accessor failed
// mid-shard (partial `best` must be discarded by the caller).
template <typename RowAccessor>
bool ExactKnnShard(RowAccessor& rows, const double* FUZZYDB_RESTRICT target,
                   size_t dim, size_t k, ShardRange range,
                   std::vector<std::pair<double, size_t>>* best) {
  k = std::min(k, range.size());
  best->reserve(k);
  thread_local std::vector<double> d2;  // per-thread scratch
  for (size_t lo = range.begin; lo < range.end; lo += kBoundSlice) {
    d2.resize(std::min(kBoundSlice, range.end - lo));
    if (!rows.PrefixDistances2(lo, target, dim, d2)) return false;
    for (size_t r = 0; r < d2.size(); ++r) {
      OfferSmallest(best, k, d2[r], lo + r);
    }
  }
  return true;
}

// The cascade restricted to rows [range.begin, range.end): appends up to
// k local best (d^2, index) pairs to `best` (unsorted) and adds this
// shard's counters to `stats`. `qquery` non-null runs the int8 level −1
// (over `qs`, indexed by *global* row number) in place of the all-rows
// float prefix scan. Returns false iff the accessor failed mid-shard.
template <typename RowAccessor>
bool CascadeShard(RowAccessor& rows, const double* FUZZYDB_RESTRICT t,
                  size_t dim, size_t k, const CascadeOptions& options,
                  const QuantizedStore* qs,
                  const QuantizedStore::EncodedQuery* qquery, ShardRange range,
                  std::vector<std::pair<double, size_t>>* best,
                  CascadeStats* stats) {
  const size_t n = range.size();
  if (n == 0) return true;
  k = std::min(k, n);
  const size_t s0 = std::clamp<size_t>(options.prefix_dim, 1, dim);

  // The cheap full-collection bound that orders the candidate walk: either
  // the int8 level −1 (quantized codes, ~1 byte/dim) or the float s0-dim
  // prefix (8 bytes/dim over s0 of dim dims). Both are admissible lower
  // bounds on d^2, so either ordering admits early termination with no
  // false dismissals. The walk visits rows in ascending (bound, local
  // index) order, but only its visited prefix is ever sorted: the pass
  // keeps the `capacity` smallest pairs in a max-heap (the first chunk),
  // and a chunk the walk uses up without stopping is followed by the next
  // 2x larger one, selected from the stored bounds strictly after the last
  // pair visited — never by re-reading rows. Both buffers are per-thread
  // scratch, reused across queries, so a query allocates nothing in
  // proportion to its shard.
  thread_local std::vector<double> bound;
  thread_local std::vector<std::pair<double, size_t>> chunk;
  bound.resize(n);
  chunk.clear();
  size_t capacity = std::max<size_t>(4 * k, 256);
  // Offers row i's bound b to the chunk: OfferSmallest's strict-< rule
  // against a copy of the heap top, re-read after every admission, so once
  // the chunk is full a row whose bound is not below the top costs one
  // compare. The heap's order is only defined when no bound is NaN.
  bool full = false;
  double top = 0.0;  // read only while `full`
  auto select = [&](size_t i, double b) {
    FUZZYDB_INVARIANT(!std::isnan(b), "cascade bound is NaN for row " +
                                          std::to_string(range.begin + i));
    if (full && !(b < top)) return;
    OfferSmallest(&chunk, capacity, b, i);
    full = chunk.size() == capacity;
    if (full) top = chunk.front().first;
  };
  for (size_t lo = 0; lo < n; lo += kBoundSlice) {
    const std::span<double> slice =
        std::span<double>(bound).subspan(lo, std::min(kBoundSlice, n - lo));
    if (qquery != nullptr) {
      qs->LowerBounds2Range(*qquery, range.begin + lo, slice);
    } else if (!rows.PrefixDistances2(range.begin + lo, t, s0, slice)) {
      return false;
    }
    for (size_t r = 0; r < slice.size(); ++r) select(lo + r, slice[r]);
  }
  if (qquery != nullptr) {
    stats->quantized_bound_computations += n;
    stats->bytes_scanned_quantized += n * qs->row_bytes();
  } else {
    stats->bound_computations += n;
    stats->bytes_scanned_prefix += n * s0 * sizeof(double);
  }

  // Current k best as (d^2, global index); "worst" is the lexicographic
  // maximum, matching ExactKnn's tie-break (distance ascending, then index).
  best->reserve(k);
  size_t worst_pos = 0;
  auto recompute_worst = [best, &worst_pos]() {
    worst_pos = 0;
    for (size_t p = 1; p < best->size(); ++p) {
      if ((*best)[p] > (*best)[worst_pos]) worst_pos = p;
    }
  };

  // Refines one visited candidate (global row idx, ordering bound b) to its
  // exact d^2 in one pass over the whole row, and offers it to `best`;
  // false iff the accessor failed. In float mode the pass re-reads the
  // bound pass's prefix rather than storing it per row: the accumulator is
  // split-invariant, so the bits are the same, and the counters charge the
  // prefix once, above.
  const size_t refined_from = qquery != nullptr ? 0 : s0;
  auto refine = [&](double b, size_t idx) {
    const double* row = rows.Acquire(idx);
    if (row == nullptr) return false;
    SquaredDistanceAccumulator acc;
    rows.Accumulate(acc, row, t, 0, dim);
    const double d2 = acc.Total();
    // The exact d^2 must dominate the bound that ordered the candidate —
    // the quantized level −1 bound or the float prefix — or that bound
    // could have falsely dismissed it ([HSE+95]).
    FUZZYDB_INVARIANT(d2 >= b, std::string("cascade ") +
                                   (qquery != nullptr ? "int8" : "prefix") +
                                   " bound " + std::to_string(b) +
                                   " exceeds exact d^2 " + std::to_string(d2) +
                                   " for row " + std::to_string(idx));
    ++stats->candidates_refined;
    ++stats->full_distance_computations;
    stats->bytes_scanned_refine += (dim - refined_from) * sizeof(double);

    if (best->size() < k) {
      best->emplace_back(d2, idx);
      if (best->size() == k) recompute_worst();
    } else if (std::pair(d2, idx) < (*best)[worst_pos]) {
      (*best)[worst_pos] = {d2, idx};
      recompute_worst();
    }
    return true;
  };

  for (;;) {
    std::sort_heap(chunk.begin(), chunk.end());
    for (const auto& [b, local_idx] : chunk) {
      // Strict >: a candidate whose bound ties the worst d^2 could still
      // win its tie on index, so only a strictly larger bound ends the scan.
      if (best->size() == k && b > (*best)[worst_pos].first) return true;
      if (!refine(b, range.begin + local_idx)) return false;
    }
    // A chunk below its capacity held every row not yet visited.
    if (chunk.size() < capacity) return true;
    const std::pair<double, size_t> last = chunk.back();
    capacity *= 2;
    chunk.clear();
    for (size_t i = 0; i < n; ++i) {
      if (last < std::pair(bound[i], i)) {
        OfferSmallest(&chunk, capacity, bound[i], i);
      }
    }
  }
}

// The one kNN driver both stores run every top-k query through: splits
// rows [0, n) into shards (see ResolveShards), runs
// kernel(rows, range, &best, &stats) on each — ExactKnnShard or
// CascadeShard, filling the shard's local k best (d^2, index) pairs — and
// keeps the global k smallest, ascending by (distance, index). The global k
// smallest pairs are contained in the union of the shard-local ones, and
// every path selects on the same lexicographic key, so answers are
// bit-identical at any shard count, with or without a pool. Each shard's
// counters are added to `stats` (when non-null) in shard order, so totals
// are deterministic in (n, shards) and independent of scheduling. A failing
// shard's status is returned (see ForEachShard) and no partial answer
// escapes. k = 0 or n = 0 answers empty; k > n clamps.
template <typename MakeRows, typename ShardKernel>
Result<std::vector<std::pair<size_t, double>>> ShardedKnn(
    size_t n, size_t k, ThreadPool* pool, size_t shards,
    const MakeRows& make_rows, const ShardKernel& kernel,
    CascadeStats* stats) {
  if (k == 0 || n == 0) return std::vector<std::pair<size_t, double>>{};
  k = std::min(k, n);
  const std::vector<ShardRange> ranges = ResolveShards(n, pool, shards);
  struct Local {
    std::vector<std::pair<double, size_t>> best;
    CascadeStats stats;
  };
  std::vector<Local> local(ranges.size());
  FUZZYDB_RETURN_NOT_OK(ForEachShard(
      pool, ranges.size(), make_rows, [&](auto& rows, size_t s) {
        return kernel(rows, ranges[s], &local[s].best, &local[s].stats);
      }));

  // Shard 0's buffer becomes the merge buffer, so one shard copies nothing.
  size_t total = 0;
  for (const Local& mine : local) total += mine.best.size();
  std::vector<std::pair<double, size_t>> merged = std::move(local[0].best);
  merged.reserve(total);
  for (size_t s = 1; s < local.size(); ++s) {
    merged.insert(merged.end(), local[s].best.begin(), local[s].best.end());
  }
  KeepKSmallest(&merged, k);
  if (stats != nullptr) {
    for (const Local& mine : local) stats->Absorb(mine.stats);
  }
  return ToOutput(std::move(merged));
}

}  // namespace knn_internal
}  // namespace fuzzydb

#endif  // FUZZYDB_IMAGE_KNN_KERNEL_H_

// The int8 scalar-quantized companion tier of EmbeddingStore (DESIGN §3g) —
// the cascade's level −1.
//
// The paper's filter theorem (§4, no-false-dismissals) only asks that the
// cheap distance be an admissible lower bound on the exact one; nothing
// says the bound must be a float eigen-prefix. This tier trades precision
// for memory bandwidth instead of trading dimensions: every embedding row
// is stored a second time as int8 codes (1 byte/dim instead of 8), and the
// level −1 scan reads those codes plus one stored correction term per row.
//
// Quantization scheme. Dimensions are grouped into blocks of
// simd::kBlockDim; each block b gets one scale factor
//     s_b = max over all rows, dims j in block b of |x_j| / kInt8CodeMax,
// chosen from the data so stored values never clamp. Codes are
//     q_j = round(x_j / s_b) in [-kInt8CodeMax, kInt8CodeMax],
// and the dequantized row is x~_j = q_j * s_b. Per-block scales matter
// because the eigen spectrum decays: one global scale sized for the leading
// dimensions would round every trailing dimension to zero.
//
// Error bound (the admissibility proof). Write x~ and t~ for the
// dequantized row and target, and
//     r_x = |x - x~|_2   (stored per row, computed exactly at Build time)
//     r_t = |t - t~|_2   (computed exactly at query encode time).
// The reverse triangle inequality, applied twice in L2, gives
//     |x - t| >= |x~ - t~| - |x - x~| - |t - t~| = d~ - r_x - r_t,
// where d~^2 = sum_b s_b^2 * SSD_b and SSD_b is the int32 sum of squared
// code differences in block b — the quantity the simd kernels compute
// exactly. So  max(0, d~ - r_x - r_t)^2  is a provable lower bound on the
// exact squared distance for every pair, by construction: no sampling, no
// tuning, no dependence on the data distribution. (A deliberately clamped
// target only grows r_t, which only weakens the bound — never breaks it.)
// LowerBound2() additionally shaves a 1e-9 relative safety margin off d~ so
// floating-point roundoff in the float recombination can never push the
// computed bound past the exactly-computed distance; the margin is ~10^5
// times roundoff and ~10^-9 of the bound itself, i.e. free.
//
// The kernels' int32 accumulations are exact integer arithmetic, so the
// scalar, AVX2, and AVX-512 VNNI paths are bit-identical and the dispatch
// choice (common/simd_dispatch.h) can never change answers.

#ifndef FUZZYDB_IMAGE_QUANTIZED_STORE_H_
#define FUZZYDB_IMAGE_QUANTIZED_STORE_H_

#include <functional>
#include <span>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/simd_dispatch.h"

namespace fuzzydb {

/// The int8 companion buffer: codes, per-block scales, per-row residual
/// norms, and the dispatched kernel. Value-semantic; an empty store (default
/// constructed) means "tier not built" and is skipped by the cascade.
class QuantizedStore {
 public:
  /// Dimensions per scale block (= the kernel block size).
  static constexpr size_t kBlockDim = simd::kBlockDim;
  /// Hard cap on blocks per row, sizing LowerBound2's stack scratch.
  static constexpr size_t kMaxBlocks = 64;

  QuantizedStore() = default;

  /// Copies row i's `dim` doubles into `out` (out.size() == dim).
  using RowReader = std::function<void(size_t i, std::span<double> out)>;

  /// Quantizes `size` rows of `dim` doubles, each read through `read_row`
  /// (EmbeddingStore::CopyRow for the RAM store's column groups). dim must
  /// be at most kMaxBlocks * kBlockDim.
  static QuantizedStore Build(size_t size, size_t dim,
                              const RowReader& read_row);

  /// Number of scale blocks for a given dim.
  static size_t NumBlocks(size_t dim) {
    return (dim + kBlockDim - 1) / kBlockDim;
  }
  /// Codes per row (dim rounded up to a whole block).
  static size_t PaddedDim(size_t dim) { return NumBlocks(dim) * kBlockDim; }

  /// Encodes one row of `dim` doubles against per-block `scales` into
  /// `codes` (PaddedDim entries; pad must already be zero) and returns the
  /// exact residual norm |x - x~|_2. This is the one encoding routine —
  /// Build(), EncodeQuery(), and the streaming column-file writer all call
  /// it, which is what makes a persisted tier byte-identical to a rebuilt
  /// one.
  static double EncodeRowAgainst(const double* row, size_t dim,
                                 std::span<const double> scales, int8_t* codes);

  /// Assembles a store from externally produced parts (the column-file
  /// reader): per-block scales (already divided by kInt8CodeMax), per-row
  /// exact residual norms, and row-major padded codes. The kernel is
  /// re-resolved on this host — safe, because every kernel level computes
  /// the same exact integer sums. Sizes must agree (codes = size *
  /// PaddedDim(dim), scales = NumBlocks(dim), residuals = size).
  static QuantizedStore FromParts(size_t size, size_t dim,
                                  std::vector<double> scales,
                                  std::vector<double> residuals,
                                  AlignedArray<int8_t> codes);

  /// Per-block scales (NumBlocks entries) — persistence accessor.
  std::span<const double> scales() const { return scales_; }
  /// Per-row residual norms — persistence accessor.
  std::span<const double> residuals() const { return residuals_; }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t dim() const { return dim_; }
  /// dim rounded up to a whole number of blocks; the row stride in bytes.
  size_t padded_dim() const { return padded_; }
  size_t blocks() const { return blocks_; }
  /// Bytes the level −1 scan reads per row: the padded codes plus the
  /// stored residual norm.
  size_t row_bytes() const { return padded_ + sizeof(double); }
  double scale(size_t block) const { return scales_[block]; }
  /// Kernel level resolved at Build time (simd::Active() then).
  simd::Level kernel_level() const { return kernel_level_; }

  std::span<const int8_t> RowCodes(size_t i) const {
    return {codes_.data() + i * padded_, padded_};
  }
  /// |x_i - x~_i|_2 — row i's exact quantization residual norm.
  double row_residual(size_t i) const { return residuals_[i]; }

  /// A query target quantized against the store's scales, with its exact
  /// residual norm. Encode once per query; read-only afterwards, so one
  /// encoding is safely shared across shards.
  struct EncodedQuery {
    AlignedArray<int8_t> codes;  // padded_dim() entries
    double residual = 0.0;       // |t - t~|_2, exact
  };
  EncodedQuery EncodeQuery(std::span<const double> target) const;

  /// The admissible lower bound on the exact *squared* distance between row
  /// i and the encoded target: max(0, d~ * (1 - 1e-9) - r_x - r_t)^2. The
  /// single-row path (R-tree driver, auditors); scans use LowerBounds2Range.
  double LowerBound2(const EncodedQuery& query, size_t i) const;

  /// out[r] = LowerBound2(query, begin + r) for every r < out.size(), bit for
  /// bit: one call of the fused bound kernel (simd::BoundsFn) over the
  /// contiguous rows, which runs LowerBound2's arithmetic several rows at a
  /// time.
  void LowerBounds2Range(const EncodedQuery& query, size_t begin,
                         std::span<double> out) const;

  /// Level −1 batch scan: out[i] = LowerBound2(query, i) for every row, one
  /// contiguous pass over the int8 buffer.
  void BatchLowerBounds2(const EncodedQuery& query,
                         std::span<double> out) const;

 private:
  size_t size_ = 0;
  size_t dim_ = 0;
  size_t padded_ = 0;
  size_t blocks_ = 0;
  simd::Level kernel_level_ = simd::Level::kScalar;
  simd::BlockSsdFn kernel_ = nullptr;
  simd::BoundsFn bounds_ = nullptr;
  std::vector<double> scales_;     // per block
  std::vector<double> scales_sq_;  // s_b^2, the recombination coefficients
  std::vector<double> residuals_;  // per row
  AlignedArray<int8_t> codes_;     // size_ * padded_, row-major
};

}  // namespace fuzzydb

#endif  // FUZZYDB_IMAGE_QUANTIZED_STORE_H_

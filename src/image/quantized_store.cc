#include "image/quantized_store.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

namespace fuzzydb {

namespace {

int8_t QuantizeValue(double value, double scale) {
  if (scale <= 0.0) return 0;
  const double scaled = value / scale;
  // Clamp before rounding: stored rows never clamp (the scale is sized from
  // their maxima), but query targets may lie outside the store's range, and
  // lround on a huge quotient would be UB.
  if (scaled >= static_cast<double>(simd::kInt8CodeMax)) {
    return static_cast<int8_t>(simd::kInt8CodeMax);
  }
  if (scaled <= -static_cast<double>(simd::kInt8CodeMax)) {
    return static_cast<int8_t>(-simd::kInt8CodeMax);
  }
  return static_cast<int8_t>(std::lround(scaled));
}

}  // namespace

// Accumulates the residual in ascending-dimension order (deterministic).
double QuantizedStore::EncodeRowAgainst(const double* row, size_t dim,
                                        std::span<const double> scales,
                                        int8_t* codes) {
  double residual_sq = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    const double s = scales[j / kBlockDim];
    const int8_t q = QuantizeValue(row[j], s);
    codes[j] = q;
    const double err = row[j] - static_cast<double>(q) * s;
    residual_sq += err * err;
  }
  return std::sqrt(residual_sq);
}

QuantizedStore QuantizedStore::FromParts(size_t size, size_t dim,
                                         std::vector<double> scales,
                                         std::vector<double> residuals,
                                         AlignedArray<int8_t> codes) {
  QuantizedStore store;
  if (size == 0 || dim == 0) return store;
  assert(dim <= kMaxBlocks * kBlockDim);
  store.size_ = size;
  store.dim_ = dim;
  store.blocks_ = NumBlocks(dim);
  store.padded_ = store.blocks_ * kBlockDim;
  assert(scales.size() == store.blocks_ && residuals.size() == size &&
         codes.size() == size * store.padded_);
  store.kernel_level_ = simd::Active();
  store.kernel_ = simd::ResolveBlockSsd(store.kernel_level_);
  store.bounds_ = simd::ResolveBounds(store.kernel_level_);
  store.scales_ = std::move(scales);
  store.scales_sq_.resize(store.blocks_);
  for (size_t b = 0; b < store.blocks_; ++b) {
    store.scales_sq_[b] = store.scales_[b] * store.scales_[b];
  }
  store.residuals_ = std::move(residuals);
  store.codes_ = std::move(codes);
  return store;
}

QuantizedStore QuantizedStore::Build(size_t size, size_t dim,
                                     const RowReader& read_row) {
  QuantizedStore store;
  if (size == 0 || dim == 0) return store;
  assert(dim <= kMaxBlocks * kBlockDim);
  store.size_ = size;
  store.dim_ = dim;
  store.blocks_ = (dim + kBlockDim - 1) / kBlockDim;
  store.padded_ = store.blocks_ * kBlockDim;
  store.kernel_level_ = simd::Active();
  store.kernel_ = simd::ResolveBlockSsd(store.kernel_level_);
  store.bounds_ = simd::ResolveBounds(store.kernel_level_);

  // Per-block scales from the data's own maxima: stored codes never clamp.
  std::vector<double> row(dim);
  store.scales_.assign(store.blocks_, 0.0);
  for (size_t i = 0; i < size; ++i) {
    read_row(i, row);
    for (size_t j = 0; j < dim; ++j) {
      store.scales_[j / kBlockDim] =
          std::max(store.scales_[j / kBlockDim], std::fabs(row[j]));
    }
  }
  store.scales_sq_.resize(store.blocks_);
  for (size_t b = 0; b < store.blocks_; ++b) {
    store.scales_[b] /= static_cast<double>(simd::kInt8CodeMax);
    store.scales_sq_[b] = store.scales_[b] * store.scales_[b];
  }

  store.codes_ = AlignedArray<int8_t>(size * store.padded_);
  store.residuals_.resize(size);
  for (size_t i = 0; i < size; ++i) {
    read_row(i, row);
    store.residuals_[i] = EncodeRowAgainst(
        row.data(), dim, store.scales_, store.codes_.data() + i * store.padded_);
  }
  return store;
}

QuantizedStore::EncodedQuery QuantizedStore::EncodeQuery(
    std::span<const double> target) const {
  assert(target.size() == dim_);
  EncodedQuery query;
  query.codes = AlignedArray<int8_t>(padded_);
  query.residual =
      EncodeRowAgainst(target.data(), dim_, scales_, query.codes.data());
  return query;
}

double QuantizedStore::LowerBound2(const EncodedQuery& query, size_t i) const {
  std::array<int32_t, kMaxBlocks> block_sums;
  kernel_(codes_.data() + i * padded_, query.codes.data(), padded_,
          block_sums.data());
  // Fixed ascending-block recombination: deterministic in (store, query),
  // independent of kernel level and shard split.
  double dq2 = 0.0;
  for (size_t b = 0; b < blocks_; ++b) {
    dq2 += scales_sq_[b] * static_cast<double>(block_sums[b]);
  }
  return simd::FinishBound(dq2, residuals_[i], query.residual);
}

void QuantizedStore::LowerBounds2Range(const EncodedQuery& query,
                                       size_t begin,
                                       std::span<double> out) const {
  assert(begin + out.size() <= size_);
  if (out.empty()) return;
  bounds_(codes_.data() + begin * padded_, query.codes.data(), blocks_,
          scales_sq_.data(), residuals_.data() + begin, query.residual,
          out.size(), out.data());
}

void QuantizedStore::BatchLowerBounds2(const EncodedQuery& query,
                                       std::span<double> out) const {
  assert(out.size() == size_);
  LowerBounds2Range(query, 0, out);
}

}  // namespace fuzzydb

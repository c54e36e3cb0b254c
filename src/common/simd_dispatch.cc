#include "common/simd_dispatch.h"

#include <cassert>
#include <cstdlib>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FUZZYDB_SIMD_X86 1
#include <immintrin.h>
#endif

namespace fuzzydb {
namespace simd {

namespace {

void BlockSsdScalar(const int8_t* x, const int8_t* y, size_t n,
                    int32_t* out) {
  assert(n % kBlockDim == 0);
  for (size_t b = 0; b * kBlockDim < n; ++b) {
    int32_t acc = 0;
    for (size_t j = b * kBlockDim; j < (b + 1) * kBlockDim; ++j) {
      const int32_t d = static_cast<int32_t>(x[j]) - static_cast<int32_t>(y[j]);
      acc += d * d;
    }
    out[b] = acc;
  }
}

// The reference bound arithmetic, one row at a time: BlockSsdScalar's sums
// folded straight into the recombination, block by block in ascending order.
void BoundsScalar(const int8_t* codes, const int8_t* query, size_t blocks,
                  const double* scales_sq, const double* row_residuals,
                  double query_residual, size_t m, double* out) {
  const size_t padded = blocks * kBlockDim;
  for (size_t r = 0; r < m; ++r) {
    const int8_t* row = codes + r * padded;
    double dq2 = 0.0;
    for (size_t b = 0; b < blocks; ++b) {
      int32_t ssd = 0;
      for (size_t j = b * kBlockDim; j < (b + 1) * kBlockDim; ++j) {
        const int32_t d =
            static_cast<int32_t>(row[j]) - static_cast<int32_t>(query[j]);
        ssd += d * d;
      }
      dq2 += scales_sq[b] * static_cast<double>(ssd);
    }
    out[r] = FinishBound(dq2, row_residuals[r], query_residual);
  }
}

#if defined(FUZZYDB_SIMD_X86)

// Horizontal sum of 4 int32 lanes.
__attribute__((target("avx2"))) int32_t HSum4(__m128i v) {
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(v);
}

// The 8 int32 partial sums of one 32-code chunk (blocks b and b+1) of a row
// against the same chunk of the query. maddubs and madd are in-lane, so lane
// k sums the squared differences of codes 4k..4k+3: lanes 0..3 hold block b
// and lanes 4..7 block b+1.
__attribute__((target("avx2"))) inline __m256i ChunkSsd(const int8_t* row,
                                                        __m256i query) {
  const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row));
  const __m256i ad = _mm256_abs_epi8(_mm256_sub_epi8(x, query));
  return _mm256_madd_epi16(_mm256_maddubs_epi16(ad, ad),
                           _mm256_set1_epi16(1));
}

// The 16-code form of ChunkSsd for an odd trailing block: 4 partial sums.
__attribute__((target("avx2"))) inline __m128i LoneBlockSsd(const int8_t* row,
                                                         __m128i query) {
  const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(row));
  const __m128i ad = _mm_abs_epi8(_mm_sub_epi8(x, query));
  return _mm_madd_epi16(_mm_maddubs_epi16(ad, ad), _mm_set1_epi16(1));
}

// Two 16-code blocks per 256-bit vector, reduced to one sum per block.
// Operand bounds (codes in ±kInt8CodeMax): diff in [-126, 126] — no int8
// wrap in sub_epi8, |diff| fits both maddubs operands, pair sums < 2^15.
__attribute__((target("avx2"))) void BlockSsdAvx2(const int8_t* x,
                                                  const int8_t* y, size_t n,
                                                  int32_t* out) {
  assert(n % kBlockDim == 0);
  const size_t blocks = n / kBlockDim;
  size_t b = 0;
  for (; b + 2 <= blocks; b += 2) {
    const __m256i s32 = ChunkSsd(
        x + b * kBlockDim, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                               y + b * kBlockDim)));
    out[b] = HSum4(_mm256_castsi256_si128(s32));
    out[b + 1] = HSum4(_mm256_extracti128_si256(s32, 1));
  }
  if (b < blocks) {  // odd trailing block: same arithmetic, one 128-bit lane
    out[b] = HSum4(LoneBlockSsd(
        x + b * kBlockDim,
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(y + b * kBlockDim))));
  }
}

// dq2 += scale_sq * sums, four rows per lane: a rounded product, then a
// rounded sum, exactly BoundsScalar's step (target "avx2" has no FMA to
// contract into).
__attribute__((target("avx2"))) inline __m256d Recombine(__m256d dq2,
                                                         double scale_sq,
                                                         __m128i sums) {
  return _mm256_add_pd(
      dq2, _mm256_mul_pd(_mm256_set1_pd(scale_sq), _mm256_cvtepi32_pd(sums)));
}

// Four rows at a time, one 64-bit lane per row. For each pair of blocks the
// four rows' ChunkSsd vectors are reduced by a hadd tree into one vector
// whose low 128-bit lane holds block b's exact sums for rows r..r+3 and
// whose high lane holds block b+1's; int32 addition is exact, so these are
// BlockSsdScalar's sums. The double steps then follow BoundsScalar per lane:
// the same ascending-block recombination, an IEEE sqrt (correctly rounded,
// as std::sqrt), the same products, differences and clamp. Rows past the
// last multiple of four run through BoundsScalar itself.
__attribute__((target("avx2"))) void BoundsAvx2(
    const int8_t* codes, const int8_t* query, size_t blocks,
    const double* scales_sq, const double* row_residuals,
    double query_residual, size_t m, double* out) {
  const size_t padded = blocks * kBlockDim;
  const __m256d keep = _mm256_set1_pd(1.0 - kBoundSafety);
  const __m256d qres = _mm256_set1_pd(query_residual);
  size_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const int8_t* row = codes + r * padded;
    __m256d dq2 = _mm256_setzero_pd();
    size_t b = 0;
    for (; b + 2 <= blocks; b += 2) {
      const size_t at = b * kBlockDim;
      const __m256i q =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(query + at));
      const __m256i sums = _mm256_hadd_epi32(
          _mm256_hadd_epi32(ChunkSsd(row + at, q),
                            ChunkSsd(row + padded + at, q)),
          _mm256_hadd_epi32(ChunkSsd(row + 2 * padded + at, q),
                            ChunkSsd(row + 3 * padded + at, q)));
      dq2 = Recombine(dq2, scales_sq[b], _mm256_castsi256_si128(sums));
      dq2 = Recombine(dq2, scales_sq[b + 1],
                      _mm256_extracti128_si256(sums, 1));
    }
    if (b < blocks) {
      const size_t at = b * kBlockDim;
      const __m128i q =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(query + at));
      const __m128i sums =
          _mm_hadd_epi32(_mm_hadd_epi32(LoneBlockSsd(row + at, q),
                                        LoneBlockSsd(row + padded + at, q)),
                         _mm_hadd_epi32(LoneBlockSsd(row + 2 * padded + at, q),
                                        LoneBlockSsd(row + 3 * padded + at, q)));
      dq2 = Recombine(dq2, scales_sq[b], sums);
    }
    const __m256d bound = _mm256_sub_pd(
        _mm256_sub_pd(_mm256_mul_pd(_mm256_sqrt_pd(dq2), keep),
                      _mm256_loadu_pd(row_residuals + r)),
        qres);
    // bound <= 0 (ordered: a NaN bound stays NaN) finishes as +0.0.
    const __m256d clamped =
        _mm256_cmp_pd(bound, _mm256_setzero_pd(), _CMP_LE_OQ);
    _mm256_storeu_pd(out + r,
                     _mm256_andnot_pd(clamped, _mm256_mul_pd(bound, bound)));
  }
  BoundsScalar(codes + r * padded, query, blocks, scales_sq,
               row_residuals + r, query_residual, m - r, out + r);
}

// GCC's avx512 cast/extract intrinsics expand through a deliberately
// uninitialized __Y temporary (avxintrin.h), tripping -Wmaybe-uninitialized
// under -Werror; the value is never actually read.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) int32_t
HSum8Vnni(__m256i v) {
  const __m128i sum =
      _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  __m128i s = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

// Two 16-code blocks per iteration: sign-extend 32 int8 codes to int16,
// subtract, then one vpdpwssd accumulates diff*diff pairs into int32 lanes.
// cvtepi8_epi16 is sequential, so s16 lanes 0..15 are block b and 16..31
// are block b+1; dpwssd pairs in-order, so s32 lanes 0..7 / 8..15 split the
// same way.
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) void
BlockSsdAvx512Vnni(const int8_t* x, const int8_t* y, size_t n, int32_t* out) {
  assert(n % kBlockDim == 0);
  const size_t blocks = n / kBlockDim;
  size_t b = 0;
  for (; b + 2 <= blocks; b += 2) {
    const __m256i bx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(x + b * kBlockDim));
    const __m256i by = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(y + b * kBlockDim));
    const __m512i diff =
        _mm512_sub_epi16(_mm512_cvtepi8_epi16(bx), _mm512_cvtepi8_epi16(by));
    const __m512i acc =
        _mm512_dpwssd_epi32(_mm512_setzero_si512(), diff, diff);
    out[b] = HSum8Vnni(_mm512_castsi512_si256(acc));
    out[b + 1] = HSum8Vnni(_mm512_extracti64x4_epi64(acc, 1));
  }
  if (b < blocks) {  // odd trailing block via the 256-bit VNNI form
    const __m128i bx = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(x + b * kBlockDim));
    const __m128i by = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(y + b * kBlockDim));
    const __m256i diff =
        _mm256_sub_epi16(_mm256_cvtepi8_epi16(bx), _mm256_cvtepi8_epi16(by));
    out[b] = HSum8Vnni(_mm256_dpwssd_epi32(_mm256_setzero_si256(), diff, diff));
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // FUZZYDB_SIMD_X86

Level DetectUncached() {
#if defined(FUZZYDB_SIMD_X86)
  if (__builtin_cpu_supports("avx512vnni") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512bw")) {
    return Level::kAvx512Vnni;
  }
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

Level ActiveUncached() {
  Level level = Detect();
  // Runs once, under Active()'s magic-static init, before any worker thread
  // exists — and nothing in the process ever setenv()s — so the getenv
  // race concurrency-mt-unsafe guards against cannot occur here.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* forced = std::getenv("FUZZYDB_SIMD");
  if (forced != nullptr) {
    if (std::optional<Level> parsed = Parse(forced); parsed.has_value()) {
      // Clamp to hardware: forcing can narrow the ISA, never exceed it.
      if (*parsed < level) level = *parsed;
    }
  }
  return level;
}

}  // namespace

Level Detect() {
  static const Level cached = DetectUncached();
  return cached;
}

Level Active() {
  static const Level cached = ActiveUncached();
  return cached;
}

BlockSsdFn ResolveBlockSsd(Level level) {
#if defined(FUZZYDB_SIMD_X86)
  switch (level) {
    case Level::kAvx512Vnni:
      return BlockSsdAvx512Vnni;
    case Level::kAvx2:
      return BlockSsdAvx2;
    case Level::kScalar:
      return BlockSsdScalar;
  }
#else
  (void)level;
#endif
  return BlockSsdScalar;
}

BoundsFn ResolveBounds(Level level) {
#if defined(FUZZYDB_SIMD_X86)
  if (level >= Level::kAvx2) return BoundsAvx2;
#else
  (void)level;
#endif
  return BoundsScalar;
}

BlockSsdFn ActiveBlockSsd() {
  static const BlockSsdFn cached = ResolveBlockSsd(Active());
  return cached;
}

std::string_view Name(Level level) {
  switch (level) {
    case Level::kAvx512Vnni:
      return "avx512vnni";
    case Level::kAvx2:
      return "avx2";
    case Level::kScalar:
      return "scalar";
  }
  return "scalar";
}

std::optional<Level> Parse(std::string_view text) {
  if (text == "scalar") return Level::kScalar;
  if (text == "avx2") return Level::kAvx2;
  if (text == "avx512" || text == "avx512vnni") return Level::kAvx512Vnni;
  return std::nullopt;
}

}  // namespace simd
}  // namespace fuzzydb

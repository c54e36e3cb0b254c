// Runtime dispatch for the int8 quantized-distance kernels (DESIGN §3g).
//
// Two kernel families, each selected once per process from CPUID plus an
// optional FUZZYDB_SIMD environment override. BlockSsdFn computes blockwise
// sums of squared int8 differences for one pair of code vectors; BoundsFn
// fuses those sums with the rest of the level −1 bound and turns a run of
// stored rows into finished lower bounds (see BoundsFn below). The block
// sums come in three implementations:
//
//   kScalar      portable lane-free int32 loop; the only path on non-x86.
//   kAvx2        _mm256_maddubs_epi16 over |diff| bytes: 32 codes per op.
//                Sound because codes are clamped to ±kInt8CodeMax = ±63, so
//                diffs fit int8 without wrap, |diff| <= 126 fits both the
//                unsigned and the signed maddubs operand, and each s16 pair
//                sum is <= 2 * 126^2 = 31752 < 2^15 (no saturation).
//   kAvx512Vnni  vpdpwssd (AVX-512 VNNI) over sign-extended int16 diffs:
//                32 codes per 512-bit op, int32 accumulation in one
//                instruction. Guarded: compiled only on x86-64 GCC/Clang,
//                selected only when CPUID reports avx512vnni+vl+bw.
//
// The fused bound kernel has two implementations: the scalar loop, and an
// AVX2 kernel that runs four rows at a time (one double lane per row) and
// serves both SIMD levels — it already reads its rows at about the stream
// rate, so a VNNI dot product would only idle longer on memory.
//
// The dispatch choice can never change answers: every kernel performs the
// same exact integer arithmetic (int32 sums of int8 difference squares are
// associative and overflow-free by the operand bounds above), so all three
// are bit-identical, not merely close. The fused kernels then run the same
// double operations in the same order on those sums, with no fused
// multiply-add (the build passes -ffp-contract=off), so their bounds are
// bit-identical too. Tests compare them element-wise; the
// benches stamp the active level into their JSON reports so every measured
// number is attributable to the ISA it ran on.
//
// Forcing a path (CI runs the matrix): FUZZYDB_SIMD=scalar|avx2|avx512.
// A request the CPU cannot honor falls back to the best supported level at
// or below it — forcing can only narrow, never fake, the instruction set.

#ifndef FUZZYDB_COMMON_SIMD_DISPATCH_H_
#define FUZZYDB_COMMON_SIMD_DISPATCH_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace fuzzydb {
namespace simd {

/// Kernel implementations, ordered by width: clamping a request means
/// taking the min with what CPUID reports.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512Vnni = 2,
};

/// Dimensions per quantization block: the granularity of both the per-block
/// scale factors (image/quantized_store.h) and the kernel's output sums.
/// 16 int8 codes = one 128-bit lane, the unit all three kernels agree on.
constexpr size_t kBlockDim = 16;

/// Largest magnitude of a stored int8 code. ±63 rather than ±127 so the
/// AVX2 path's maddubs operands stay in range (see file comment): one sign
/// bit of headroom buys a 32-codes-per-instruction kernel.
constexpr int kInt8CodeMax = 63;

/// Blockwise squared-difference sums: out[b] = sum over j in block b of
/// (x[j] - y[j])^2, exact int32. `n` must be a multiple of kBlockDim and
/// `out` must have n / kBlockDim entries. Codes must be in
/// [-kInt8CodeMax, kInt8CodeMax]. Every Level computes bit-identical out[].
using BlockSsdFn = void (*)(const int8_t* x, const int8_t* y, size_t n,
                            int32_t* out);

/// Relative margin every int8 lower bound shaves off d~ before subtracting
/// the residuals (image/quantized_store.h derives the bound), so roundoff in
/// the double recombination (~1e-16 relative) can never push it past the
/// exactly computed distance: when the clamped bound is positive,
/// d~ > r_x + r_t, so a 1e-9 relative shave dominates every rounding term.
constexpr double kBoundSafety = 1e-9;

/// The last step of every int8 lower bound, from the recombined d~^2 of one
/// row: max(0, sqrt(dq2) * (1 - kBoundSafety) - r_x - r_t)^2.
inline double FinishBound(double dq2, double row_residual,
                          double query_residual) {
  const double bound =
      std::sqrt(dq2) * (1.0 - kBoundSafety) - row_residual - query_residual;
  return bound <= 0.0 ? 0.0 : bound * bound;
}

/// Fused level −1 bounds of `m` contiguous rows of `blocks * kBlockDim`
/// codes each, starting at `codes`, against the `query` codes: for r < m,
///   dq2 = 0; for b = 0 .. blocks-1: dq2 += scales_sq[b] * ssd(r, b)
///   out[r] = FinishBound(dq2, row_residuals[r], query_residual)
/// where ssd(r, b) is BlockSsdFn's exact int32 sum for block b of row r, and
/// each += is a rounded product followed by a rounded sum (no fused
/// multiply-add). Every Level computes bit-identical out[] for any m and
/// any `blocks` >= 1.
using BoundsFn = void (*)(const int8_t* codes, const int8_t* query,
                          size_t blocks, const double* scales_sq,
                          const double* row_residuals, double query_residual,
                          size_t m, double* out);

/// The widest level this CPU supports (CPUID; kScalar on non-x86 builds).
Level Detect();

/// Detect() clamped by the FUZZYDB_SIMD environment override, computed once
/// per process. This is the level production kernels run at.
Level Active();

/// Kernel for an explicit level — for the bit-identity tests and the forced
/// CI legs. `level` must not exceed Detect() or the call may fault.
BlockSsdFn ResolveBlockSsd(Level level);

/// The production kernel: ResolveBlockSsd(Active()), cached.
BlockSsdFn ActiveBlockSsd();

/// Fused bound kernel for an explicit level; same rules as ResolveBlockSsd.
BoundsFn ResolveBounds(Level level);

/// "scalar", "avx2", "avx512vnni" — the bench-report stamp.
std::string_view Name(Level level);

/// Parses "scalar" / "avx2" / "avx512" / "avx512vnni" (the override
/// grammar); nullopt for anything else.
std::optional<Level> Parse(std::string_view text);

}  // namespace simd
}  // namespace fuzzydb

#endif  // FUZZYDB_COMMON_SIMD_DISPATCH_H_

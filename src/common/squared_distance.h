// The vectorizable squared-Euclidean-distance kernel shared by every
// embedding code path (common/matrix.cc, image/embedding_store.cc,
// image/indexed_search.cc).
//
// The accumulation is *lane-blocked*: lane l of the accumulator holds the
// partial sum of (x[j]-y[j])^2 over the indices j with j % kLanes == l, each
// lane summed in ascending-j order, and the final reduction over lanes uses
// one fixed tree. Because lane membership depends only on the absolute index
// j, accumulating [a,b) and then [b,c) leaves the accumulator bit-identical
// to accumulating [a,c) in one call, for any split point — the property the
// cascade's arbitrary refinement checkpoints, the sharded batch kernels, and
// the serial paths all rely on to return bit-identical answers.
//
// The lane structure is also exactly what the auto-vectorizer wants: the hot
// loop is a fixed-width block of independent fused multiply-adds over
// restrict-qualified unit-stride pointers (kLanes = 8 doubles = four SSE2 /
// two AVX2 / one AVX-512 register), with no cross-iteration dependence
// inside a block. Build with -DFUZZYDB_NATIVE_ARCH=ON to let the compiler
// use the widest vectors the host supports.

#ifndef FUZZYDB_COMMON_SQUARED_DISTANCE_H_
#define FUZZYDB_COMMON_SQUARED_DISTANCE_H_

#include <cstddef>

#if defined(__GNUC__) || defined(__clang__)
#define FUZZYDB_RESTRICT __restrict__
#else
#define FUZZYDB_RESTRICT
#endif

namespace fuzzydb {

/// Split-invariant accumulation state for one squared distance. Value
/// semantics; zero-initialized; carry it across refinement checkpoints.
struct SquaredDistanceAccumulator {
  /// Fixed accumulation width (see file comment); part of the numeric
  /// contract, not a tuning knob: changing it changes low-order bits.
  static constexpr size_t kLanes = 8;

  double lanes[kLanes] = {};

  /// Adds (x[j] - y[j])^2 for j in [begin, end) to the lane sums.
  inline void Accumulate(const double* FUZZYDB_RESTRICT x,
                         const double* FUZZYDB_RESTRICT y, size_t begin,
                         size_t end) {
    size_t j = begin;
    // Peel to a lane boundary so each full block maps offset l to lane l.
    for (; j < end && j % kLanes != 0; ++j) {
      const double d = x[j] - y[j];
      lanes[j % kLanes] += d * d;
    }
    for (; j + kLanes <= end; j += kLanes) AccumulateBlock(x + j, y + j);
    for (; j < end; ++j) {
      const double d = x[j] - y[j];
      lanes[j % kLanes] += d * d;
    }
  }

  /// Adds (x[l] - y[l])^2 to lane l for every l < kLanes: one whole lane
  /// block, the vector body of every accumulation.
  inline void AccumulateBlock(const double* FUZZYDB_RESTRICT x,
                              const double* FUZZYDB_RESTRICT y) {
    for (size_t l = 0; l < kLanes; ++l) {
      const double d = x[l] - y[l];
      lanes[l] += d * d;
    }
  }

  /// Accumulate for an x stored as column groups: dims [8g, 8g + 8) of x
  /// are the kLanes doubles at x + g * group_stride (one cache line per
  /// group). Group g's slice runs at offset 8g, so dim j still lands in lane
  /// j % kLanes and each lane still sums in ascending j: the lane state is
  /// bit-identical to Accumulate over a contiguous copy of x.
  inline void AccumulateGroups(const double* FUZZYDB_RESTRICT x,
                               size_t group_stride,
                               const double* FUZZYDB_RESTRICT y,
                               size_t begin, size_t end) {
    for (size_t first = begin - begin % kLanes; first < end; first += kLanes) {
      const double* FUZZYDB_RESTRICT line = x + first / kLanes * group_stride;
      const size_t lo = begin > first ? begin - first : 0;
      const size_t hi = end - first < kLanes ? end - first : kLanes;
      if (lo == 0 && hi == kLanes) {
        AccumulateBlock(line, y + first);
      } else {
        Accumulate(line, y + first, lo, hi);
      }
    }
  }

  /// The accumulated sum — a valid lower bound on the full squared distance
  /// mid-row, the exact squared distance at full depth. Fixed reduction
  /// tree: equal lane states always reduce to the same double.
  inline double Total() const {
    return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
           ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  }
};

/// |x - y|^2 over n dimensions in one call.
inline double SquaredDistance(const double* FUZZYDB_RESTRICT x,
                              const double* FUZZYDB_RESTRICT y, size_t n) {
  SquaredDistanceAccumulator acc;
  acc.Accumulate(x, y, 0, n);
  return acc.Total();
}

}  // namespace fuzzydb

#endif  // FUZZYDB_COMMON_SQUARED_DISTANCE_H_

// The AlignedArray alignment contract is load-bearing for the SIMD tier:
// the int8 kernels and the lane-blocked float kernels both assume rows that
// start on cache-line boundaries and may read whole cache lines. These
// tests pin the guarantee — 64-byte start, whole-line padding, zeroed
// storage — at element types and deliberately awkward sizes, plus the
// value semantics the stores rely on.

#include "common/aligned_buffer.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "image/embedding_store.h"
#include "image/quadratic_distance.h"

namespace fuzzydb {
namespace {

template <typename T>
bool Aligned64(const T* p) {
  return reinterpret_cast<uintptr_t>(p) % AlignedArray<T>::kAlignment == 0;
}

TEST(AlignedArrayTest, AlignmentIsPinnedAt64Bytes) {
  // 64 = one x86 cache line = a full 512-bit vector: both kernels assume
  // it. Changing this constant is an ABI break for every stored buffer.
  static_assert(AlignedArray<double>::kAlignment == 64);
  static_assert(AlignedArray<int8_t>::kAlignment == 64);
}

TEST(AlignedArrayTest, OddSizesStillStartOnACacheLine) {
  for (size_t n : {1u, 3u, 7u, 63u, 64u, 65u, 1000u, 4097u}) {
    AlignedArray<double> d(n);
    AlignedArray<int8_t> b(n);
    AlignedArray<int32_t> w(n);
    EXPECT_TRUE(Aligned64(d.data())) << "double n=" << n;
    EXPECT_TRUE(Aligned64(b.data())) << "int8 n=" << n;
    EXPECT_TRUE(Aligned64(w.data())) << "int32 n=" << n;
    EXPECT_EQ(d.size(), n);
    EXPECT_EQ(b.size(), n);
  }
}

TEST(AlignedArrayTest, StorageAndLinePaddingAreZeroInitialized) {
  // Whole-cacheline kernels may read past size() to the end of the last
  // line; that read must be defined *and* see zeros (the int8 pad enters
  // the block sums, where only zero is admissible).
  AlignedArray<int8_t> b(70);  // 70 bytes -> 128-byte allocation
  for (size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], 0) << i;
  const int8_t* raw = b.data();
  for (size_t i = b.size(); i < 2 * AlignedArray<int8_t>::kAlignment; ++i) {
    EXPECT_EQ(raw[i], 0) << "pad byte " << i;
  }
}

TEST(AlignedArrayTest, CopyIsDeepAndMoveTransfersOwnership) {
  AlignedArray<double> a(17);
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<double>(i) + 0.5;
  AlignedArray<double> copy(a);
  ASSERT_EQ(copy.size(), a.size());
  EXPECT_NE(copy.data(), a.data());
  EXPECT_TRUE(Aligned64(copy.data()));
  copy[3] = -1.0;
  EXPECT_EQ(a[3], 3.5);

  const double* original = a.data();
  AlignedArray<double> moved(std::move(a));
  EXPECT_EQ(moved.data(), original);
  EXPECT_EQ(moved.size(), 17u);
  EXPECT_EQ(a.size(), 0u);      // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.data(), nullptr); // NOLINT(bugprone-use-after-move)

  AlignedArray<double> assigned;
  assigned = moved;  // copy-assign
  ASSERT_EQ(assigned.size(), 17u);
  EXPECT_EQ(assigned[16], 16.5);
}

TEST(AlignedArrayTest, EmptyArrayIsValidAndNull) {
  AlignedArray<double> empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.data(), nullptr);
  AlignedArray<double> sized(0);
  EXPECT_EQ(sized.data(), nullptr);
  AlignedArray<double> copy(empty);
  EXPECT_EQ(copy.size(), 0u);
}

TEST(AlignedArrayTest, EveryEmbeddingStoreGroupLineStartsOnACacheLine) {
  // The store pads its rows to whole cache lines and keeps each 8-dim
  // column group as one line per row; audit that every line of every group
  // is 64-byte aligned at dimensions around the 8-double line boundary,
  // including the ingest-time constructor path.
  Rng rng(77);
  for (size_t bins : {3u, 8u, 9u, 27u, 64u}) {
    Palette palette = Palette::Uniform(bins, &rng);
    QuadraticFormDistance qfd = *QuadraticFormDistance::Create(palette);
    std::vector<Histogram> db;
    for (size_t i = 0; i < 5; ++i) db.push_back(RandomHistogram(&rng, bins));
    EmbeddingStore store = *EmbeddingStore::Build(qfd, db);
    EXPECT_GE(store.stride(), store.dim());
    EXPECT_EQ(store.groups() * EmbeddingStore::kGroupDim, store.stride());
    for (size_t i = 0; i < store.size(); ++i) {
      for (size_t g = 0; g < store.groups(); ++g) {
        EXPECT_TRUE(Aligned64(store.Line(i, g)))
            << "bins=" << bins << " row=" << i << " group=" << g;
      }
    }
    EmbeddingStore sized(4, bins);
    for (size_t i = 0; i < sized.size(); ++i) {
      for (size_t g = 0; g < sized.groups(); ++g) {
        EXPECT_TRUE(Aligned64(sized.Line(i, g)))
            << "sized bins=" << bins << " row=" << i << " group=" << g;
      }
    }
  }
}

}  // namespace
}  // namespace fuzzydb

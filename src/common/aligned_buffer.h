// A fixed-size, cache-line-aligned array. Feature buffers (the column
// groups of eigen-space embeddings in image/embedding_store.h, the
// row-major int8 codes of image/quantized_store.h) live in one of these so
// batched scans walk contiguous, 64-byte-aligned memory — the layout the
// vectorizer, the explicit SIMD kernels (aligned 512-bit loads), and the
// prefetcher all want.
//
// The alignment is a hard guarantee, not a fast path: allocation failure
// aborts instead of degrading to an unaligned or null buffer (the release
// builds used to carry only an assert here, which compiled away exactly
// when the guarantee mattered), the byte size is rounded up to a whole
// number of cache lines so full-cacheline block kernels may read to the
// end of the last line, and the padding is zeroed so doing so is defined.

#ifndef FUZZYDB_COMMON_ALIGNED_BUFFER_H_
#define FUZZYDB_COMMON_ALIGNED_BUFFER_H_

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>

namespace fuzzydb {

/// Owning buffer of `size()` elements of trivially-copyable type T whose
/// storage starts on a 64-byte boundary and spans whole cache lines.
/// Value-semantic (deep copy); zero-initialized, including line padding.
template <typename T>
class AlignedArray {
 public:
  /// Alignment of the first element, in bytes (one x86 cache line; also the
  /// natural alignment for 512-bit vector loads).
  static constexpr size_t kAlignment = 64;
  static_assert(std::is_trivially_copyable_v<T>,
                "AlignedArray memcpy/memsets its storage");
  static_assert(kAlignment % alignof(T) == 0 && sizeof(T) <= kAlignment,
                "element alignment must divide the cache-line alignment");

  AlignedArray() = default;

  explicit AlignedArray(size_t size) : size_(size) {
    if (size_ == 0) return;
    // aligned_alloc requires the byte size to be a multiple of the
    // alignment; rounding up also makes whole-cacheline reads of the final
    // block defined.
    const size_t bytes =
        (size_ * sizeof(T) + kAlignment - 1) / kAlignment * kAlignment;
    data_ = static_cast<T*>(std::aligned_alloc(kAlignment, bytes));
    if (data_ == nullptr) std::abort();  // the guarantee is unconditional
    std::memset(data_, 0, bytes);
  }

  AlignedArray(const AlignedArray& other) : AlignedArray(other.size_) {
    if (size_ > 0) std::memcpy(data_, other.data_, size_ * sizeof(T));
  }
  AlignedArray& operator=(const AlignedArray& other) {
    if (this != &other) *this = AlignedArray(other);
    return *this;
  }
  AlignedArray(AlignedArray&& other) noexcept
      : size_(std::exchange(other.size_, 0)),
        data_(std::exchange(other.data_, nullptr)) {}
  AlignedArray& operator=(AlignedArray&& other) noexcept {
    if (this != &other) {
      std::free(data_);
      size_ = std::exchange(other.size_, 0);
      data_ = std::exchange(other.data_, nullptr);
    }
    return *this;
  }
  ~AlignedArray() { std::free(data_); }

  size_t size() const { return size_; }
  T* data() { return data_; }
  const T* data() const { return data_; }

  T& operator[](size_t i) { return data_[i]; }
  T operator[](size_t i) const { return data_[i]; }

  std::span<T> span() { return {data_, size_}; }
  std::span<const T> span() const { return {data_, size_}; }

 private:
  size_t size_ = 0;
  T* data_ = nullptr;
};

/// The double-precision instantiation every float feature buffer uses.
using AlignedBuffer = AlignedArray<double>;

}  // namespace fuzzydb

#endif  // FUZZYDB_COMMON_ALIGNED_BUFFER_H_

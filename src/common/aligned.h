#ifndef SBRL_COMMON_ALIGNED_H_
#define SBRL_COMMON_ALIGNED_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace sbrl {

/// Byte alignment of every Matrix backing allocation. 64 bytes is one
/// full AVX-512 vector (8 doubles) AND one x86 cache line, so a zmm
/// load from data() + any multiple of the vector width is an aligned
/// access and a row never straddles a line it did not have to. The
/// dispatch kernels still use unaligned load instructions (loadu is
/// penalty-free on aligned addresses since Nehalem) — alignment buys
/// the memory system, not the decoder.
inline constexpr size_t kTensorAlignment = 64;

/// Minimal C++17 allocator that over-aligns every allocation to
/// `kTensorAlignment`. Used as the allocator of the tensor backing
/// vectors so both pool-recycled and plain-constructed matrices get
/// aligned storage from the same code path. Stateless: all instances
/// compare equal, and rebinding across element types is allowed (the
/// vector implementation rebinds internally).
template <typename T>
class AlignedAllocator {
 public:
  /// Element type, per the Allocator named requirements.
  using value_type = T;

  AlignedAllocator() noexcept = default;
  /// Rebinding copy — stateless, so nothing is copied.
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  /// Allocates storage for `n` elements at kTensorAlignment.
  T* allocate(size_t n) {
    if (n == 0) return nullptr;
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t(kTensorAlignment)));
  }

  /// Releases storage obtained from allocate().
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t(kTensorAlignment));
  }

  /// All instances are interchangeable.
  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  /// See operator==.
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

/// std::vector with kTensorAlignment-aligned storage — the backing
/// container of Matrix, and the staging-buffer type the streaming CSV
/// loader hands through Matrix::FromFlat (the zero-copy adoption seam
/// requires the loader and the matrix to agree on the allocator).
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// True when `p` meets the tensor alignment contract. Exposed for the
/// matrix_test alignment regression.
inline bool IsTensorAligned(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % kTensorAlignment == 0;
}

}  // namespace sbrl

#endif  // SBRL_COMMON_ALIGNED_H_

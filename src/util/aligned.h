// 64-byte-aligned vector storage for the SoA lane buffers.
//
// The batch engines index rows as `data[slot * B + lane]`; aligning the
// base to a cache line keeps every B=8 row inside one line, so a row loop
// touches one line per row. Nothing relies on the alignment for
// correctness: it is a performance property, not a contract.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace stcg::util {

template <typename T, std::size_t Align = 64>
class AlignedAllocator {
 public:
  using value_type = T;
  static constexpr std::align_val_t kAlign{Align};

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, kAlign);
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

template <typename T>
using AlignedVec = std::vector<T, AlignedAllocator<T>>;

}  // namespace stcg::util

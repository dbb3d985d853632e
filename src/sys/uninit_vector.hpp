// A std::vector whose resize() leaves new elements uninitialised.
//
// The layout builders size their |E|-entry arrays and then write every
// element from a parallel pass (stable_bucket in sys/parallel.hpp).  With
// std::allocator, resize() would first value-initialise the whole array on
// the calling thread — a serial write of every page, whose placement the
// parallel pass then inherits.  UninitAllocator skips that: the pages are
// first touched by the threads that fill them.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace grind {

/// std::allocator whose argument-less construct() is a no-op, so
/// vector::resize(n) allocates without writing.  Only for implicit-lifetime,
/// trivially copyable element types (ids, weights, Edge), whose storage
/// holds valid objects as soon as it is written.  Copies and every
/// construct() with arguments behave as with std::allocator.
template <typename T>
struct UninitAllocator : std::allocator<T> {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };

  UninitAllocator() noexcept = default;
  template <typename U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

/// A vector that resize()s without initialising (see UninitAllocator).
template <typename T>
using UninitVector = std::vector<T, UninitAllocator<T>>;

}  // namespace grind

//===- support/Arena.h - Bump-pointer slab allocator ----------------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena. IR nodes, grammar patterns and automaton states are
/// allocated here: allocation is a pointer bump, and everything is released
/// at once when the arena dies. Destructors of allocated objects are NOT
/// run, so only trivially-destructible payloads (or externally owned ones)
/// belong in an arena.
///
//===----------------------------------------------------------------------===//

#ifndef ODBURG_SUPPORT_ARENA_H
#define ODBURG_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace odburg {

/// A slab-based bump allocator.
class Arena {
public:
  Arena() = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  Arena(Arena &&RHS) noexcept
      : Current(RHS.Current), Ptr(RHS.Ptr), End(RHS.End),
        BytesAllocated(RHS.BytesAllocated), NumSlabs(RHS.NumSlabs) {
    RHS.Current = nullptr;
    RHS.Ptr = RHS.End = nullptr;
    RHS.BytesAllocated = 0;
    RHS.NumSlabs = 0;
  }

  Arena &operator=(Arena &&RHS) noexcept {
    if (this == &RHS)
      return *this;
    this->~Arena();
    new (this) Arena(std::move(RHS));
    return *this;
  }

  ~Arena();

  /// Allocates \p Bytes bytes aligned to \p Alignment.
  void *allocate(std::size_t Bytes, std::size_t Alignment);

  /// Allocates and default-constructs a T. T must be trivially destructible
  /// (the arena never runs destructors).
  template <typename T, typename... ArgTs> T *create(ArgTs &&...Args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena-allocated types must not need destruction");
    void *Mem = allocate(sizeof(T), alignof(T));
    return new (Mem) T(std::forward<ArgTs>(Args)...);
  }

  /// Allocates an uninitialized array of \p Count Ts.
  template <typename T> T *allocateArray(std::size_t Count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena-allocated types must not need destruction");
    return static_cast<T *>(allocate(sizeof(T) * Count, alignof(T)));
  }

  /// Copies \p Str (length \p Len, not necessarily NUL-terminated) into the
  /// arena and returns a NUL-terminated copy.
  const char *copyString(const char *Str, std::size_t Len);

  /// Total bytes obtained from malloc (capacity, not live data).
  std::size_t bytesAllocated() const { return BytesAllocated; }

  /// Number of slabs allocated so far.
  unsigned numSlabs() const { return NumSlabs; }

private:
  struct Slab {
    Slab *Prev;
    std::size_t Size;
    // Payload follows the header.
  };

  void newSlab(std::size_t MinBytes);

  static constexpr std::size_t SlabSize = 64 * 1024;

  Slab *Current = nullptr;
  char *Ptr = nullptr;
  char *End = nullptr;
  std::size_t BytesAllocated = 0;
  unsigned NumSlabs = 0;
};

} // namespace odburg

#endif // ODBURG_SUPPORT_ARENA_H

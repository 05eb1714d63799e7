//===- support/Arena.cpp - Bump-pointer slab allocator --------------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"

#include "support/ErrorHandling.h"

#include <cstdlib>
#include <cstring>

using namespace odburg;

Arena::~Arena() {
  Slab *S = Current;
  while (S) {
    Slab *Prev = S->Prev;
    std::free(S);
    S = Prev;
  }
}

void Arena::newSlab(std::size_t MinBytes) {
  std::size_t PayloadBytes = SlabSize - sizeof(Slab);
  if (MinBytes > PayloadBytes)
    PayloadBytes = MinBytes;
  std::size_t Total = sizeof(Slab) + PayloadBytes;
  Slab *S = static_cast<Slab *>(std::malloc(Total));
  if (!S)
    reportFatalError("arena slab allocation failed");
  S->Prev = Current;
  S->Size = Total;
  Current = S;
  Ptr = reinterpret_cast<char *>(S) + sizeof(Slab);
  End = reinterpret_cast<char *>(S) + Total;
  BytesAllocated += Total;
  ++NumSlabs;
}

void *Arena::allocate(std::size_t Bytes, std::size_t Alignment) {
  // Align the bump pointer. Alignment is a power of two.
  std::uintptr_t P = reinterpret_cast<std::uintptr_t>(Ptr);
  std::uintptr_t Aligned = (P + Alignment - 1) & ~(Alignment - 1);
  std::size_t Padding = Aligned - P;
  if (!Current || Ptr + Padding + Bytes > End) {
    // A fresh slab payload is maximally aligned, so no padding is needed.
    newSlab(Bytes + Alignment);
    P = reinterpret_cast<std::uintptr_t>(Ptr);
    Aligned = (P + Alignment - 1) & ~(Alignment - 1);
    Padding = Aligned - P;
  }
  char *Result = Ptr + Padding;
  Ptr = Result + Bytes;
  return Result;
}

const char *Arena::copyString(const char *Str, std::size_t Len) {
  char *Mem = static_cast<char *>(allocate(Len + 1, 1));
  std::memcpy(Mem, Str, Len);
  Mem[Len] = '\0';
  return Mem;
}

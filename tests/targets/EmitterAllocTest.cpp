//===- tests/targets/EmitterAllocTest.cpp ---------------------------------===//
//
// Part of the odburg project.
//
// Steady-state emission allocates nothing. This binary replaces the global
// operator new/delete with counting versions; after one warm call on the
// largest function, emitting each of a mixed 50-8000 node x86 corpus into
// one reused, cleared AsmBuffer must make zero heap allocations.
//
//===----------------------------------------------------------------------===//

#include "targets/AsmEmitter.h"

#include "core/OnDemandAutomaton.h"
#include "select/Reducer.h"
#include "targets/Target.h"
#include "workload/Synthetic.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iterator>
#include <new>
#include <vector>

namespace {
std::atomic<std::size_t> Allocations{0};

void *countedAlloc(std::size_t N) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t N) { return countedAlloc(N); }
void *operator new[](std::size_t N) { return countedAlloc(N); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace odburg;
using namespace odburg::targets;

TEST(EmitterAlloc, SteadyStateEmitMakesNoHeapAllocations) {
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Fns;
  const char *Profiles[] = {"gzip-like", "gcc-like", "twolf-like"};
  const unsigned Sizes[] = {50, 90, 170, 320, 600, 1100, 2100, 4000, 8000};
  for (unsigned I = 0; I < std::size(Sizes); ++I) {
    workload::Profile P = *workload::findProfile(Profiles[I % 3]);
    P.Seed = 11 + I;
    P.TargetNodes = Sizes[I];
    Fns.push_back(cantFail(workload::generate(P, T->G)));
  }
  OnDemandAutomaton A(T->G, &T->Dyn);
  std::vector<Selection> Sels;
  for (ir::IRFunction &F : Fns) {
    A.labelFunction(F);
    Sels.push_back(cantFail(reduce(T->G, F, A, &T->Dyn)));
  }
  std::size_t Largest = 0;
  for (std::size_t I = 1; I < Fns.size(); ++I)
    if (Fns[I].size() > Fns[Largest].size())
      Largest = I;
  ASSERT_GE(Fns[Largest].size(), 7000u);
  ASSERT_LE(Fns.front().size(), 100u);

  // The warm call grows the buffer and this thread's scratch; it must
  // allocate, or the counter is not counting.
  AsmBuffer Buf;
  std::size_t Before = Allocations.load();
  cantFail(emitAsm(T->G, Fns[Largest], Sels[Largest], Buf));
  ASSERT_GT(Allocations.load(), Before);

  for (std::size_t I = 0; I < Fns.size(); ++I) {
    Buf.clear();
    Before = Allocations.load();
    cantFail(emitAsm(T->G, Fns[I], Sels[I], Buf));
    EXPECT_EQ(Allocations.load() - Before, 0u)
        << "function " << I << " (" << Fns[I].size() << " nodes)";
    EXPECT_GT(Buf.Instructions, 0u);
  }
}

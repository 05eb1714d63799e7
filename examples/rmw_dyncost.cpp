//===- examples/rmw_dyncost.cpp - what dynamic costs buy ----------------------===//
//
// Part of the odburg project.
//
// The motivating example of the whole line of work: `x = x + 1` can be one
// read-modify-write instruction, but only if the load and the store
// address the same location — a condition no fixed-cost tree grammar can
// express. This example selects the same statement shape with matching and
// non-matching addresses, with and without the dynamic-cost rules, and
// prints the resulting code.
//
//===----------------------------------------------------------------------===//

#include "core/OnDemandAutomaton.h"
#include "select/Reducer.h"
#include "targets/AsmEmitter.h"
#include "targets/Target.h"

#include <cstdio>

using namespace odburg;
using namespace odburg::targets;

/// Builds Store(AddrL StoreOff, Add(Load(AddrL LoadOff), Const 1)).
static void buildIncrement(ir::IRFunction &F, const CanonicalOps &Ops,
                           std::int64_t StoreOff, std::int64_t LoadOff) {
  ir::Node *SAddr = F.makeLeaf(Ops.AddrL, StoreOff);
  ir::Node *LAddr = F.makeLeaf(Ops.AddrL, LoadOff);
  SmallVector<ir::Node *, 1> LC{LAddr};
  ir::Node *Ld = F.makeNode(Ops.Load, LC);
  ir::Node *One = F.makeLeaf(Ops.Const, 1);
  SmallVector<ir::Node *, 2> AC{Ld, One};
  ir::Node *Sum = F.makeNode(Ops.Add, AC);
  SmallVector<ir::Node *, 2> SC{SAddr, Sum};
  F.addRoot(F.makeNode(Ops.Store, SC));
}

static void show(const char *Title, const Grammar &G, const DynCostTable *Dyn,
                 std::int64_t StoreOff, std::int64_t LoadOff,
                 const CanonicalOps &Ops) {
  ir::IRFunction F;
  buildIncrement(F, Ops, StoreOff, LoadOff);
  OnDemandAutomaton A(G, Dyn);
  A.labelFunction(F);
  Selection S = cantFail(reduce(G, F, A, Dyn));
  AsmBuffer Asm;
  cantFail(emitAsm(G, F, S, Asm));
  std::printf("%s (cost %u, %u instructions):\n%s\n", Title,
              S.TotalCost.value(), Asm.Instructions, Asm.Text.c_str());
}

int main() {
  auto T = cantFail(makeTarget("x86"));
  CanonicalOps Ops = cantFail(resolveCanonicalOps(T->G));

  std::printf("statement: mem[a] = mem[b] + 1 on x86\n\n");
  show("same address (a == b), dynamic costs ON", T->G, &T->Dyn, 16, 16, Ops);
  show("different address (a != b), dynamic costs ON", T->G, &T->Dyn, 16, 24,
       Ops);
  show("same address, dynamic costs stripped (fixed-cost grammar)", T->Fixed,
       nullptr, 16, 16, Ops);

  std::printf("The RMW rule fires only in the first case: same code quality\n"
              "as lburg's dynamic costs, but the labeler is an automaton.\n");
  return 0;
}

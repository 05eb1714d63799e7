//===- select/Reducer.cpp - Derivation walk and match extraction ----------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "select/Reducer.h"

#include <algorithm>

namespace odburg {

/// Explicit-stack derivation walker (IR trees can be deep enough to make
/// native recursion risky). Visited set and stack live in a caller-owned
/// ReductionScratch so batch drivers can reuse them across functions.
class ReducerWalker {
public:
  ReducerWalker(const Grammar &G, const ir::IRFunction &F, const Labeling &L,
                const DynCostTable *Dyn, Selection &Out,
                ReductionScratch &Scratch)
      : G(G), L(L), Dyn(Dyn), Out(Out), Scratch(Scratch),
        Stride(G.numNonterminals()) {
    std::size_t Needed = static_cast<std::size_t>(F.size()) * Stride;
    if (Scratch.VisitedEpoch.size() < Needed)
      Scratch.VisitedEpoch.resize(Needed, 0);
    if (++Scratch.Epoch == 0) {
      // Epoch wrapped: stale tags could alias the fresh epoch, so pay one
      // full clear every 2^32 reductions.
      std::fill(Scratch.VisitedEpoch.begin(), Scratch.VisitedEpoch.end(), 0);
      Scratch.Epoch = 1;
    }
  }

  Error walkRoot(const ir::Node *Root, NonterminalId Goal) {
    std::vector<Frame> &Stack = Scratch.Stack;
    Stack.clear();
    push(Root, Goal);
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      if (!F.Resolved) {
        if (Error E = resolve(F))
          return E;
        if (F.Skip) {
          Stack.pop_back();
          continue;
        }
      }
      const NormRule &R = G.normRule(F.Rule);
      if (R.isChain()) {
        if (F.NextChild == 0) {
          F.NextChild = 1;
          push(F.N, R.ChainRhs);
          continue;
        }
        fire(F.N, R);
        Stack.pop_back();
        continue;
      }
      if (F.NextChild < R.Operands.size()) {
        unsigned I = F.NextChild++;
        push(F.N->child(I), R.Operands[I]);
        continue;
      }
      if (R.IsFinal)
        fire(F.N, R);
      accountCost(F.N, R);
      Stack.pop_back();
    }
    return Error::success();
  }

private:
  using Frame = ReductionScratch::Frame;

  void push(const ir::Node *N, NonterminalId Nt) {
    Frame F;
    F.N = N;
    F.Nt = Nt;
    Scratch.Stack.push_back(F);
  }

  Error resolve(Frame &F) {
    F.Resolved = true;
    std::size_t Key = static_cast<std::size_t>(F.N->id()) * Stride + F.Nt;
    if (Scratch.VisitedEpoch[Key] == Scratch.Epoch) {
      // DAG sharing: this (node, nonterminal) was already derived; its code
      // was (or will be) emitted by the first visit.
      F.Skip = true;
      return Error::success();
    }
    Scratch.VisitedEpoch[Key] = Scratch.Epoch;
    F.Rule = L.ruleFor(*F.N, F.Nt);
    if (F.Rule == InvalidRule)
      return Error::make("no derivation of nonterminal '" +
                         G.nonterminalName(F.Nt) + "' at node " +
                         std::to_string(F.N->id()) + " (operator '" +
                         G.operatorName(F.N->op()) + "')");
    return Error::success();
  }

  void fire(const ir::Node *N, const NormRule &R) {
    Out.Matches.push_back({N, R.Source, R.Lhs});
    if (R.isChain())
      accountCost(N, R);
  }

  void accountCost(const ir::Node *N, const NormRule &R) {
    Cost C = R.FixedCost;
    if (R.DynHook != InvalidDynCost) {
      assert(Dyn && "dynamic-cost rule fired without a hook table");
      C += Dyn->evaluate(R.DynHook, *N);
    }
    Out.TotalCost += C;
  }

  const Grammar &G;
  const Labeling &L;
  const DynCostTable *Dyn;
  Selection &Out;
  ReductionScratch &Scratch;
  unsigned Stride;
};

} // namespace odburg

using namespace odburg;

Error odburg::reduce(const Grammar &G, const ir::IRFunction &F,
                     const Labeling &L, const DynCostTable *Dyn,
                     ReductionScratch &Scratch, Selection &Out) {
  Out.Matches.clear();
  Out.TotalCost = Cost::zero();
  ReducerWalker W(G, F, L, Dyn, Out, Scratch);
  for (const ir::Node *Root : F.roots())
    if (Error E = W.walkRoot(Root, G.startNt()))
      return E;
  return Error::success();
}

Expected<Selection> odburg::reduce(const Grammar &G, const ir::IRFunction &F,
                                   const Labeling &L, const DynCostTable *Dyn,
                                   ReductionScratch &Scratch) {
  Selection Out;
  if (Error E = reduce(G, F, L, Dyn, Scratch, Out))
    return E;
  return Out;
}

Expected<Selection> odburg::reduce(const Grammar &G, const ir::IRFunction &F,
                                   const Labeling &L,
                                   const DynCostTable *Dyn) {
  ReductionScratch Scratch;
  return reduce(G, F, L, Dyn, Scratch);
}

//===- tests/TestUtil.h - Shared test fixtures -----------------------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared fixtures: the running-example grammar of the on-demand-automata
/// line of papers (lcc-style load/store/add machine with a read-modify-
/// write rule), small IR builders, and a deterministic random tree
/// generator used by property tests.
///
//===----------------------------------------------------------------------===//

#ifndef ODBURG_TESTS_TESTUTIL_H
#define ODBURG_TESTS_TESTUTIL_H

#include "grammar/GrammarParser.h"
#include "ir/Node.h"
#include "select/DynCost.h"
#include "select/Labeling.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace odburg {
namespace test {

/// Splits newline-terminated assembly text (targets::AsmBuffer::Text)
/// into its lines, without the newlines.
inline std::vector<std::string> asmLines(std::string_view Text) {
  std::vector<std::string> Lines;
  while (!Text.empty()) {
    std::size_t End = Text.find('\n');
    Lines.emplace_back(Text.substr(0, End));
    Text.remove_prefix(End == std::string_view::npos ? Text.size() : End + 1);
  }
  return Lines;
}

/// Asserts that two labelings agree on \p F: identical rules everywhere,
/// and costs equal up to one per-node delta (automaton engines normalize
/// costs per state, the DP labeler reports absolute costs).
inline void expectEquivalent(const Grammar &G, const ir::IRFunction &F,
                             const Labeling &Reference,
                             const Labeling &Subject) {
  for (const ir::Node *N : F.nodes()) {
    bool HaveDelta = false;
    Cost::ValueType Delta = 0;
    for (NonterminalId Nt = 0; Nt < G.numNonterminals(); ++Nt) {
      Cost RC = Reference.costFor(*N, Nt);
      Cost SC = Subject.costFor(*N, Nt);
      ASSERT_EQ(RC.isInfinite(), SC.isInfinite())
          << "node " << N->id() << " nt " << G.nonterminalName(Nt);
      if (RC.isFinite()) {
        ASSERT_GE(RC.raw(), SC.raw());
        Cost::ValueType D = RC.raw() - SC.raw();
        if (!HaveDelta) {
          Delta = D;
          HaveDelta = true;
        }
        ASSERT_EQ(D, Delta) << "non-uniform normalization delta at node "
                            << N->id();
      }
      ASSERT_EQ(Reference.ruleFor(*N, Nt), Subject.ruleFor(*N, Nt))
          << "node " << N->id() << " (" << G.operatorName(N->op()) << ") nt "
          << G.nonterminalName(Nt);
    }
  }
}

/// The running example (Ertl et al. / Thier et al., Fig. 1): rules 1-6,
/// where rule 6 is the read-modify-write pattern whose instruction
/// requires equal load/store addresses (the `?memop` dynamic cost).
inline const char *runningExampleText() {
  return R"(
    %start stmt
    addr: reg          = 1 (0);
    reg:  Reg          = 2 (0);
    reg:  Load(addr)   = 3 (1);
    reg:  Plus(reg,reg)= 4 (1);
    stmt: Store(addr,reg) = 5 (1);
    stmt: Store(addr,Plus(Load(addr),reg)) = 6 (1) ?memop;
  )";
}

/// Same grammar with rule 6 unconstrained (no dynamic costs), for engines
/// that cannot evaluate hooks (offline tables).
inline const char *runningExampleFixedText() {
  return R"(
    %start stmt
    addr: reg          = 1 (0);
    reg:  Reg          = 2 (0);
    reg:  Load(addr)   = 3 (1);
    reg:  Plus(reg,reg)= 4 (1);
    stmt: Store(addr,reg) = 5 (1);
    stmt: Store(addr,Plus(Load(addr),reg)) = 6 (1);
  )";
}

/// The `memop` hook: the RMW instruction applies only when the stored-to
/// and loaded-from address trees are structurally identical.
inline Cost memopHook(const ir::Node &N) {
  if (N.numChildren() != 2)
    return Cost::infinity();
  const ir::Node *Inner = N.child(1);
  if (Inner->numChildren() < 1)
    return Cost::infinity();
  const ir::Node *Ld = Inner->child(0);
  if (Ld->numChildren() != 1)
    return Cost::infinity();
  return ir::structurallyEqual(N.child(0), Ld->child(0)) ? Cost::zero()
                                                         : Cost::infinity();
}

/// Hook registry for the running example.
inline std::unordered_map<std::string, DynCostFn> runningExampleHooks() {
  return {{"memop", memopHook}};
}

/// Builds the paper's example subject tree
/// Store(Reg r0, Plus(Load(Reg r1), Reg r2)) and adds it as a root.
inline ir::Node *buildStoreTree(ir::IRFunction &F, const Grammar &G,
                                std::int64_t StoreReg, std::int64_t LoadReg,
                                std::int64_t AddReg) {
  OperatorId RegOp = G.findOperator("Reg");
  OperatorId LoadOp = G.findOperator("Load");
  OperatorId PlusOp = G.findOperator("Plus");
  OperatorId StoreOp = G.findOperator("Store");
  ir::Node *Dst = F.makeLeaf(RegOp, StoreReg);
  ir::Node *Src = F.makeLeaf(RegOp, LoadReg);
  SmallVector<ir::Node *, 2> C1{Src};
  ir::Node *Ld = F.makeNode(LoadOp, C1);
  ir::Node *Add = F.makeLeaf(RegOp, AddReg);
  SmallVector<ir::Node *, 2> C2{Ld, Add};
  ir::Node *Plus = F.makeNode(PlusOp, C2);
  SmallVector<ir::Node *, 2> C3{Dst, Plus};
  ir::Node *St = F.makeNode(StoreOp, C3);
  F.addRoot(St);
  return St;
}

/// Generates a random tree over the grammar's operators: leaves are random
/// leaf operators with payloads in [0, PayloadRange), interior levels pick
/// random operators. Grows roughly to \p TargetNodes. The tree's root may
/// be any operator; callers that reduce from the start symbol should root
/// the tree appropriately themselves.
class RandomTreeBuilder {
public:
  /// \p ExcludeOp names an operator to keep out of generated trees (e.g.
  /// "Store" when building value subtrees); empty = no exclusion.
  RandomTreeBuilder(const Grammar &G, std::uint64_t Seed,
                    std::int64_t PayloadRange = 8,
                    std::string_view ExcludeOp = {})
      : G(G), Rand(Seed), PayloadRange(PayloadRange) {
    OperatorId Excluded =
        ExcludeOp.empty() ? InvalidOperator : G.findOperator(ExcludeOp);
    for (OperatorId Op = 0; Op < G.numOperators(); ++Op) {
      if (Op == Excluded)
        continue;
      if (G.operatorArity(Op) == 0)
        Leaves.push_back(Op);
      else
        Interior.push_back(Op);
    }
  }

  /// Builds one random subtree of roughly \p Budget nodes in \p F.
  ir::Node *build(ir::IRFunction &F, unsigned Budget) {
    if (Budget <= 1 || Interior.empty()) {
      OperatorId Op = Leaves[Rand.nextBelow(Leaves.size())];
      return F.makeLeaf(Op, Rand.nextInRange(0, PayloadRange - 1));
    }
    OperatorId Op = Interior[Rand.nextBelow(Interior.size())];
    unsigned Arity = G.operatorArity(Op);
    SmallVector<ir::Node *, 4> Children;
    for (unsigned I = 0; I < Arity; ++I)
      Children.push_back(build(F, (Budget - 1) / Arity));
    return F.makeNode(Op, Children, Rand.nextInRange(0, PayloadRange - 1));
  }

private:
  const Grammar &G;
  RNG Rand;
  std::int64_t PayloadRange;
  std::vector<OperatorId> Leaves;
  std::vector<OperatorId> Interior;
};

} // namespace test
} // namespace odburg

#endif // ODBURG_TESTS_TESTUTIL_H

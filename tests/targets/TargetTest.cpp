//===- tests/targets/TargetTest.cpp -----------------------------------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "targets/Target.h"

#include "core/OnDemandAutomaton.h"
#include "offline/OfflineTables.h"
#include "select/LabelerBackend.h"
#include "select/DPLabeler.h"
#include "select/Reducer.h"
#include "workload/Synthetic.h"

#include <gtest/gtest.h>

using namespace odburg;
using namespace odburg::targets;

class TargetSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(TargetSuite, BuildsAndResolvesCanonicalOps) {
  auto T = cantFail(makeTarget(GetParam()));
  EXPECT_EQ(T->Name, GetParam());
  EXPECT_TRUE(T->G.isFinalized());
  EXPECT_TRUE(T->Fixed.isFinalized());
  cantFail(resolveCanonicalOps(T->G));
  cantFail(resolveCanonicalOps(T->Fixed));
}

TEST_P(TargetSuite, HasDynamicCostRules) {
  auto T = cantFail(makeTarget(GetParam()));
  EXPECT_TRUE(T->G.hasDynCosts());
  EXPECT_FALSE(T->Fixed.hasDynCosts());
  GrammarStats S = T->G.stats();
  EXPECT_GT(S.DynCostRules, 0u);
  EXPECT_GT(S.SourceRules, 30u);
  EXPECT_GT(S.ChainRules, 0u);
}

TEST_P(TargetSuite, OperatorIdsStableAcrossStripping) {
  auto T = cantFail(makeTarget(GetParam()));
  ASSERT_EQ(T->G.numOperators(), T->Fixed.numOperators());
  for (OperatorId Op = 0; Op < T->G.numOperators(); ++Op)
    EXPECT_EQ(T->G.operatorName(Op), T->Fixed.operatorName(Op));
}

TEST_P(TargetSuite, OfflineTablesGenerateForFixedGrammar) {
  auto T = cantFail(makeTarget(GetParam()));
  CompiledTables Tables = cantFail(OfflineTableGen(T->Fixed).generate());
  EXPECT_GT(Tables.stats().NumStates, 10u);
  EXPECT_GT(Tables.stats().TableBytes, 1000u);
}

TEST_P(TargetSuite, EnginesAgreeOnSyntheticWorkload) {
  auto T = cantFail(makeTarget(GetParam()));
  workload::Profile P;
  P.Name = "smoke";
  P.TargetNodes = 3000;
  P.Seed = 42;
  ir::IRFunction F = cantFail(workload::generate(P, T->G));

  DPLabeling Ref = DPLabeler(T->G, &T->Dyn).label(F);
  Selection SRef = cantFail(reduce(T->G, F, Ref, &T->Dyn));

  OnDemandAutomaton A(T->G, &T->Dyn);
  A.labelFunction(F);
  Selection SAuto = cantFail(reduce(T->G, F, A, &T->Dyn));

  ASSERT_EQ(SRef.Matches.size(), SAuto.Matches.size());
  for (std::size_t I = 0; I < SRef.Matches.size(); ++I) {
    ASSERT_EQ(SRef.Matches[I].Where, SAuto.Matches[I].Where);
    ASSERT_EQ(SRef.Matches[I].Source, SAuto.Matches[I].Source);
  }
  EXPECT_EQ(SRef.TotalCost, SAuto.TotalCost);
}

TEST_P(TargetSuite, OfflineAgreesOnFixedGrammar) {
  auto T = cantFail(makeTarget(GetParam()));
  workload::Profile P;
  P.Name = "smoke";
  P.TargetNodes = 2000;
  P.Seed = 43;
  ir::IRFunction F = cantFail(workload::generate(P, T->Fixed));

  DPLabeling Ref = DPLabeler(T->Fixed).label(F);
  Selection SRef = cantFail(reduce(T->Fixed, F, Ref));

  auto B = cantFail(LabelerBackend::create(BackendKind::Offline, T->Fixed));
  LabelerScratch Scratch;
  const Labeling &L = B->labelFunction(F, Scratch);
  Selection SOff = cantFail(reduce(T->Fixed, F, L));

  ASSERT_EQ(SRef.Matches.size(), SOff.Matches.size());
  for (std::size_t I = 0; I < SRef.Matches.size(); ++I)
    ASSERT_EQ(SRef.Matches[I].Source, SOff.Matches[I].Source);
  EXPECT_EQ(SRef.TotalCost, SOff.TotalCost);
}

TEST_P(TargetSuite, DynamicCostsNeverHurtCodeQuality) {
  // The full grammar can only improve on the stripped one: its rule set is
  // a superset whose extra rules are applicability-gated.
  auto T = cantFail(makeTarget(GetParam()));
  workload::Profile P;
  P.Name = "smoke";
  P.TargetNodes = 4000;
  P.Seed = 44;
  P.RmwPercent = 30;
  ir::IRFunction F = cantFail(workload::generate(P, T->G));

  DPLabeling Full = DPLabeler(T->G, &T->Dyn).label(F);
  Selection SFull = cantFail(reduce(T->G, F, Full, &T->Dyn));
  DPLabeling Fixed = DPLabeler(T->Fixed).label(F);
  Selection SFixed = cantFail(reduce(T->Fixed, F, Fixed));
  EXPECT_LE(SFull.TotalCost.value(), SFixed.TotalCost.value());
}

INSTANTIATE_TEST_SUITE_P(AllTargets, TargetSuite,
                         ::testing::ValuesIn(targetNames()));

TEST(Target, UnknownNameFails) {
  Expected<std::unique_ptr<Target>> T = makeTarget("pdp11");
  ASSERT_FALSE(static_cast<bool>(T));
  EXPECT_NE(T.message().find("x86"), std::string::npos);
}

TEST(Target, X86RmwNeedsEqualAddresses) {
  auto T = cantFail(makeTarget("x86"));
  CanonicalOps Ops = cantFail(resolveCanonicalOps(T->G));
  OnDemandAutomaton A(T->G, &T->Dyn);

  auto BuildRmw = [&](std::int64_t StoreOff, std::int64_t LoadOff) {
    auto F = std::make_unique<ir::IRFunction>();
    ir::Node *SAddr = F->makeLeaf(Ops.AddrL, StoreOff);
    ir::Node *LAddr = F->makeLeaf(Ops.AddrL, LoadOff);
    SmallVector<ir::Node *, 1> LC{LAddr};
    ir::Node *Ld = F->makeNode(Ops.Load, LC);
    ir::Node *R = F->makeLeaf(Ops.Reg, 2);
    SmallVector<ir::Node *, 2> AC{Ld, R};
    ir::Node *AddN = F->makeNode(Ops.Add, AC);
    SmallVector<ir::Node *, 2> SC{SAddr, AddN};
    F->addRoot(F->makeNode(Ops.Store, SC));
    return F;
  };

  auto FSame = BuildRmw(16, 16);
  A.labelFunction(*FSame);
  Selection SSame = cantFail(reduce(T->G, *FSame, A, &T->Dyn));
  EXPECT_EQ(SSame.TotalCost, Cost(1)); // One fused addq-to-memory.

  auto FDiff = BuildRmw(16, 24);
  A.labelFunction(*FDiff);
  Selection SDiff = cantFail(reduce(T->G, *FDiff, A, &T->Dyn));
  EXPECT_GT(SDiff.TotalCost.value(), 1u); // load + add + store.
}

TEST(Target, ImmediateWidthsDifferAcrossTargets) {
  // 0x3000 fits imm16/imm32 but not imm13/imm8: the same constant is an
  // immediate on mips/x86 and needs materialization on sparc/alpha.
  auto CostOfStoreConst = [](const char *Name) {
    auto T = cantFail(makeTarget(Name));
    CanonicalOps Ops = cantFail(resolveCanonicalOps(T->G));
    ir::IRFunction F;
    ir::Node *Addr = F.makeLeaf(Ops.AddrL, 8);
    ir::Node *Reg = F.makeLeaf(Ops.Reg, 1);
    ir::Node *Big = F.makeLeaf(Ops.Const, 0x3000);
    SmallVector<ir::Node *, 2> AC{Reg, Big};
    ir::Node *Sum = F.makeNode(Ops.Add, AC);
    SmallVector<ir::Node *, 2> SC{Addr, Sum};
    F.addRoot(F.makeNode(Ops.Store, SC));
    DPLabeling L = DPLabeler(T->G, &T->Dyn).label(F);
    return cantFail(reduce(T->G, F, L, &T->Dyn)).TotalCost.value();
  };
  EXPECT_LT(CostOfStoreConst("mips"), CostOfStoreConst("sparc"));
  EXPECT_LE(CostOfStoreConst("sparc"), CostOfStoreConst("alpha"));
}

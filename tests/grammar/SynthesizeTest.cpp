//===- tests/grammar/SynthesizeTest.cpp --------------------------------------===//
//
// Part of the odburg project.
//
// Grammar-fuzzing: engines must agree on arbitrary valid grammars, not
// just the hand-written ones. Synthesized grammars + random trees give a
// much broader equivalence net (DP vs. oracle vs. on-demand vs. offline).
//
//===----------------------------------------------------------------------===//

#include "grammar/Synthesize.h"

#include "core/OnDemandAutomaton.h"
#include "select/DPLabeler.h"
#include "select/LabelerBackend.h"
#include "select/Oracle.h"
#include "workload/Synthetic.h"

#include <gtest/gtest.h>

using namespace odburg;

TEST(Synthesize, ProducesFinalizedGrammar) {
  SynthesisParams P;
  Grammar G = cantFail(synthesizeGrammar(P));
  EXPECT_TRUE(G.isFinalized());
  EXPECT_EQ(G.numOperators(), P.NumLeafOps + P.NumUnaryOps + P.NumBinaryOps);
  EXPECT_EQ(G.numNonterminals(), P.NumNts);
  // Chain cycle + leaf rules + RulesPerOp per interior operator.
  EXPECT_EQ(G.numSourceRules(),
            P.NumNts + P.NumLeafOps +
                P.RulesPerOp * (P.NumUnaryOps + P.NumBinaryOps));
}

TEST(Synthesize, DeterministicInSeed) {
  SynthesisParams P;
  P.Seed = 5;
  Grammar A = cantFail(synthesizeGrammar(P));
  Grammar B = cantFail(synthesizeGrammar(P));
  ASSERT_EQ(A.numNormRules(), B.numNormRules());
  for (RuleId R = 0; R < A.numNormRules(); ++R)
    EXPECT_EQ(A.normRuleToString(R), B.normRuleToString(R));
}

TEST(Synthesize, RejectsDegenerateParams) {
  SynthesisParams P;
  P.NumNts = 1;
  EXPECT_FALSE(static_cast<bool>(synthesizeGrammar(P)));
  SynthesisParams Q;
  Q.NumLeafOps = 0;
  EXPECT_FALSE(static_cast<bool>(synthesizeGrammar(Q)));
}

class SynthFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SynthFuzz, AllEnginesAgreeOnRandomGrammars) {
  SynthesisParams P;
  P.Seed = GetParam();
  P.NumNts = 2 + GetParam() % 5;
  P.RulesPerOp = 2 + GetParam() % 7;
  Grammar G = cantFail(synthesizeGrammar(P));

  ir::IRFunction F;
  RNG Rand(GetParam() * 31);
  for (int I = 0; I < 5; ++I)
    F.addRoot(workload::synthesizeTree(G, F, Rand, 60));

  DPLabeling Ref = DPLabeler(G).label(F);
  OnDemandAutomaton A(G);
  A.labelFunction(F);
  auto Off = cantFail(LabelerBackend::create(BackendKind::Offline, G));
  const CompiledTables &Tables = *Off->tables();
  std::vector<StateId> OnDemandLabels;
  for (const ir::Node *N : F.nodes())
    OnDemandLabels.push_back(N->label());
  LabelerScratch Scratch;
  Off->labelFunction(F, Scratch);

  for (const ir::Node *N : F.nodes()) {
    const State *SOn = A.stateTable().byId(OnDemandLabels[N->id()]);
    const State *SOff = Tables.stateById(N->label());
    for (NonterminalId Nt = 0; Nt < G.numNonterminals(); ++Nt) {
      ASSERT_EQ(Ref.ruleFor(*N, Nt), SOn->ruleOf(Nt))
          << "dp vs ondemand, node " << N->id() << " nt " << Nt;
      ASSERT_EQ(SOn->ruleOf(Nt), SOff->ruleOf(Nt))
          << "ondemand vs offline, node " << N->id() << " nt " << Nt;
      ASSERT_EQ(SOn->costOf(Nt), SOff->costOf(Nt));
    }
  }
}

TEST_P(SynthFuzz, DPAgreesWithOracleOnRandomGrammars) {
  SynthesisParams P;
  P.Seed = GetParam() ^ 0xFEED;
  P.NumNts = 2 + GetParam() % 4;
  P.RulesPerOp = 2 + GetParam() % 4;
  // Keep the oracle's exponential enumeration feasible.
  P.NumUnaryOps = 2;
  P.NumBinaryOps = 3;
  Grammar G = cantFail(synthesizeGrammar(P));

  ir::IRFunction F;
  RNG Rand(GetParam() * 17 + 3);
  F.addRoot(workload::synthesizeTree(G, F, Rand, 14));
  DPLabeling Ref = DPLabeler(G).label(F);
  for (const ir::Node *N : F.nodes())
    for (NonterminalId Nt = 0; Nt < G.numNonterminals(); ++Nt)
      ASSERT_EQ(Ref.costFor(*N, Nt), oracleCost(G, *N, Nt))
          << "node " << N->id() << " nt " << Nt;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthFuzz,
                         ::testing::Range<std::uint64_t>(1, 31));

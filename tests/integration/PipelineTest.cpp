//===- tests/integration/PipelineTest.cpp ------------------------------------===//
//
// Part of the odburg project.
//
// End-to-end: MiniC source -> IR -> all three labeling engines -> reducer
// -> assembly. The engines must produce byte-identical code — the paper's
// equivalence claim at system level.
//
//===----------------------------------------------------------------------===//

#include "core/OnDemandAutomaton.h"
#include "frontend/Lowering.h"
#include "select/DPLabeler.h"
#include "select/LabelerBackend.h"
#include "select/Reducer.h"
#include "targets/AsmEmitter.h"
#include "targets/Target.h"
#include "workload/Corpus.h"
#include "workload/Synthetic.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace odburg;
using namespace odburg::targets;
using namespace odburg::workload;

namespace {

AsmBuffer emit(const Grammar &G, const ir::IRFunction &F, const Selection &S) {
  AsmBuffer Out;
  cantFail(emitAsm(G, F, S, Out));
  return Out;
}

struct PipelineCase {
  std::string TargetName;
  std::string ProgramName;
};

std::vector<PipelineCase> allCases() {
  std::vector<PipelineCase> Cases;
  for (const std::string &T : targetNames())
    for (const CorpusProgram &P : corpus())
      Cases.push_back({T, P.Name});
  return Cases;
}

std::string caseName(const ::testing::TestParamInfo<PipelineCase> &Info) {
  return Info.param.TargetName + "_" + Info.param.ProgramName;
}

} // namespace

class Pipeline : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(Pipeline, DpAndOnDemandEmitIdenticalCode) {
  auto T = cantFail(makeTarget(GetParam().TargetName));
  const CorpusProgram *P = findCorpusProgram(GetParam().ProgramName);
  ASSERT_NE(P, nullptr);
  ir::IRFunction F = cantFail(compileCorpusProgram(*P, T->G));

  DPLabeling Ref = DPLabeler(T->G, &T->Dyn).label(F);
  Selection SRef = cantFail(reduce(T->G, F, Ref, &T->Dyn));
  AsmBuffer AsmRef = emit(T->G, F, SRef);

  OnDemandAutomaton A(T->G, &T->Dyn);
  A.labelFunction(F);
  Selection SAuto = cantFail(reduce(T->G, F, A, &T->Dyn));
  AsmBuffer AsmAuto = emit(T->G, F, SAuto);

  EXPECT_EQ(AsmRef.Text, AsmAuto.Text);
  EXPECT_EQ(SRef.TotalCost, SAuto.TotalCost);
}

TEST_P(Pipeline, OfflineEmitsIdenticalCodeOnFixedGrammar) {
  auto T = cantFail(makeTarget(GetParam().TargetName));
  const CorpusProgram *P = findCorpusProgram(GetParam().ProgramName);
  ir::IRFunction F = cantFail(compileCorpusProgram(*P, T->Fixed));

  DPLabeling Ref = DPLabeler(T->Fixed).label(F);
  Selection SRef = cantFail(reduce(T->Fixed, F, Ref));
  AsmBuffer AsmRef = emit(T->Fixed, F, SRef);

  auto B = cantFail(LabelerBackend::create(BackendKind::Offline, T->Fixed));
  LabelerScratch Scratch;
  const Labeling &L = B->labelFunction(F, Scratch);
  Selection SOff = cantFail(reduce(T->Fixed, F, L));
  AsmBuffer AsmOff = emit(T->Fixed, F, SOff);

  EXPECT_EQ(AsmRef.Text, AsmOff.Text);
}

INSTANTIATE_TEST_SUITE_P(CorpusByTarget, Pipeline,
                         ::testing::ValuesIn(allCases()), caseName);

namespace {

/// The differential matrix: every target grammar crossed with SPEC-like
/// synthetic profiles of different operator mixes. The MiniC corpus above
/// is small and hand-written; the synthetic workloads drive the engines
/// through far more (op, child-state, dyn-outcome) combinations.
struct SyntheticCase {
  std::string TargetName;
  std::string ProfileName;
};

std::vector<SyntheticCase> syntheticCases() {
  std::vector<SyntheticCase> Cases;
  for (const std::string &T : targetNames())
    for (const char *P : {"gzip-like", "gcc-like", "twolf-like"})
      Cases.push_back({T, P});
  return Cases;
}

std::string syntheticCaseName(
    const ::testing::TestParamInfo<SyntheticCase> &Info) {
  std::string Name = Info.param.TargetName + "_" + Info.param.ProfileName;
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

} // namespace

class SyntheticDifferential
    : public ::testing::TestWithParam<SyntheticCase> {};

TEST_P(SyntheticDifferential, OnDemandLabelingEquivalentToDP) {
  auto T = cantFail(makeTarget(GetParam().TargetName));
  const Profile *P = findProfile(GetParam().ProfileName);
  ASSERT_NE(P, nullptr);
  // Shrink the profile so the slow DP reference stays test-suite friendly;
  // the operator mix and constant ranges are what matter here.
  Profile Q = *P;
  Q.TargetNodes = 6000;
  ir::IRFunction F = cantFail(generate(Q, T->G));

  DPLabeling Ref = DPLabeler(T->G, &T->Dyn).label(F);
  OnDemandAutomaton A(T->G, &T->Dyn);
  A.labelFunction(F);
  test::expectEquivalent(T->G, F, Ref, A);
}

INSTANTIATE_TEST_SUITE_P(TargetsByProfile, SyntheticDifferential,
                         ::testing::ValuesIn(syntheticCases()),
                         syntheticCaseName);

TEST(PipelineWarm, AutomatonStopsCreatingStatesAcrossCorpus) {
  // A JIT-like sequence: compile the whole corpus twice; the second pass
  // must create no states at all.
  auto T = cantFail(makeTarget("x86"));
  OnDemandAutomaton A(T->G, &T->Dyn);
  for (const CorpusProgram &P : corpus()) {
    ir::IRFunction F = cantFail(compileCorpusProgram(P, T->G));
    A.labelFunction(F);
  }
  unsigned StatesAfterFirstPass = A.numStates();
  SelectionStats Warm;
  for (const CorpusProgram &P : corpus()) {
    ir::IRFunction F = cantFail(compileCorpusProgram(P, T->G));
    A.labelFunction(F, &Warm);
  }
  EXPECT_EQ(A.numStates(), StatesAfterFirstPass);
  EXPECT_EQ(Warm.StatesComputed, 0u);
  EXPECT_EQ(Warm.CacheHits, Warm.CacheProbes);
}

TEST(PipelineDag, SharedSubtreesLabeledOnceEmittedOnce) {
  // Ertl'99 DAG mode on a real target: two statements share one expensive
  // subexpression. Labeling visits the shared node once (it is one node in
  // topological order) and the reducer emits its code once.
  auto T = cantFail(makeTarget("x86"));
  CanonicalOps Ops = cantFail(resolveCanonicalOps(T->G));
  ir::IRFunction F;
  // shared = r1 * r2 (multiply is expensive enough to never be folded).
  SmallVector<ir::Node *, 2> MC{F.makeLeaf(Ops.Reg, 1), F.makeLeaf(Ops.Reg, 2)};
  ir::Node *Shared = F.makeNode(Ops.Mul, MC);
  SmallVector<ir::Node *, 2> S1{F.makeLeaf(Ops.AddrL, 0), Shared};
  SmallVector<ir::Node *, 2> S2{F.makeLeaf(Ops.AddrL, 8), Shared};
  F.addRoot(F.makeNode(Ops.Store, S1));
  F.addRoot(F.makeNode(Ops.Store, S2));

  OnDemandAutomaton A(T->G, &T->Dyn);
  SelectionStats Stats;
  A.labelFunction(F, &Stats);
  EXPECT_EQ(Stats.NodesLabeled, F.size()); // 7 nodes, shared Mul once.
  Selection S = cantFail(reduce(T->G, F, A, &T->Dyn));
  AsmBuffer Asm = emit(T->G, F, S);
  // Exactly one imulq despite two uses; both stores read the same vreg.
  unsigned Muls = 0;
  for (const std::string &L : test::asmLines(Asm.Text))
    Muls += L.find("imulq") != std::string::npos;
  EXPECT_EQ(Muls, 1u);
  ASSERT_EQ(Asm.Instructions, 3u); // imulq + two movq-to-memory.
}

TEST(PipelineQuality, DynamicCostsImproveCorpusCode) {
  // Across the corpus on x86, the dynamic-cost grammar must produce
  // strictly cheaper code than the stripped grammar (there are RMW
  // opportunities in Bubble/Checksum/MatcherArch at least).
  auto T = cantFail(makeTarget("x86"));
  Cost::ValueType FullTotal = 0, FixedTotal = 0;
  for (const CorpusProgram &P : corpus()) {
    ir::IRFunction F1 = cantFail(compileCorpusProgram(P, T->G));
    DPLabeling L1 = DPLabeler(T->G, &T->Dyn).label(F1);
    FullTotal += cantFail(reduce(T->G, F1, L1, &T->Dyn)).TotalCost.value();

    ir::IRFunction F2 = cantFail(compileCorpusProgram(P, T->Fixed));
    DPLabeling L2 = DPLabeler(T->Fixed).label(F2);
    FixedTotal += cantFail(reduce(T->Fixed, F2, L2)).TotalCost.value();
  }
  EXPECT_LT(FullTotal, FixedTotal);
}

//===- tests/offline/OfflineTest.cpp ----------------------------------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "offline/OfflineTables.h"

#include "core/OnDemandAutomaton.h"
#include "grammar/GrammarParser.h"
#include "grammar/Synthesize.h"
#include "grammar/Transform.h"
#include "select/DPLabeler.h"
#include "select/Partition.h"
#include "select/LabelerBackend.h"
#include "select/Reducer.h"
#include "targets/Target.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

using namespace odburg;

TEST(Offline, RejectsDynamicCosts) {
  Grammar G = cantFail(parseGrammar(test::runningExampleText()));
  Expected<CompiledTables> T = OfflineTableGen(G).generate();
  ASSERT_FALSE(static_cast<bool>(T));
  EXPECT_EQ(T.kind(), ErrorKind::UnsupportedDynamicCosts);
  EXPECT_NE(T.message().find("dynamic costs"), std::string::npos);
  // The rejection is actionable: it names the offending operator and
  // points at the hybrid backend.
  EXPECT_NE(T.message().find("'Store'"), std::string::npos) << T.message();
  EXPECT_NE(T.message().find("hybrid"), std::string::npos) << T.message();
}

TEST(Offline, StateLimitErrorIsTyped) {
  Grammar G = cantFail(parseGrammar(test::runningExampleFixedText()));
  Expected<CompiledTables> T = OfflineTableGen(G, /*MaxStates=*/1).generate();
  ASSERT_FALSE(static_cast<bool>(T));
  EXPECT_EQ(T.kind(), ErrorKind::StateLimitExceeded);
  EXPECT_NE(T.message().find("state limit"), std::string::npos);
}

TEST(Offline, GeneratesRunningExample) {
  Grammar G = cantFail(parseGrammar(test::runningExampleFixedText()));
  CompiledTables T = cantFail(OfflineTableGen(G).generate());
  EXPECT_GT(T.stats().NumStates, 0u);
  EXPECT_GT(T.stats().NumTransitions, 0u);
  EXPECT_GT(T.stats().TableBytes, 0u);
}

TEST(Offline, GenerationIsDeterministic) {
  Grammar G = cantFail(parseGrammar(test::runningExampleFixedText()));
  CompiledTables A = cantFail(OfflineTableGen(G).generate());
  CompiledTables B = cantFail(OfflineTableGen(G).generate());
  EXPECT_EQ(A.stats().NumStates, B.stats().NumStates);
  EXPECT_EQ(A.stats().NumTransitions, B.stats().NumTransitions);
  EXPECT_EQ(A.stats().TableBytes, B.stats().TableBytes);
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
}

TEST(Offline, GenerationIsDeterministicOnSynthesizedGrammar) {
  // A synthesized grammar whose enumeration interleaves many states and
  // representers, unlike the 6-rule running example: two runs must
  // produce the same states, ids and rows, and do the same work.
  SynthesisParams P;
  P.NumLeafOps = 8;
  P.NumUnaryOps = 10;
  P.NumBinaryOps = 14;
  P.NumNts = 5;
  P.RulesPerOp = 5;
  P.Seed = 41;
  Grammar G = cantFail(synthesizeGrammar(P));
  CompiledTables A = cantFail(OfflineTableGen(G).generate());
  CompiledTables B = cantFail(OfflineTableGen(G).generate());
  ASSERT_GT(A.stats().NumStates, 32u);
  EXPECT_EQ(A.stats().StatesComputed, B.stats().StatesComputed);
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
}

TEST(Offline, GenerationFingerprintsArePinned) {
  // State ids, representer indices and dense rows are a persisted format:
  // spooled .tables files keep loading only while generation reproduces
  // these exact automata. Any change to the generator's enumeration
  // order shows up here first.
  struct Pin {
    const char *Target;
    std::uint64_t Full, Subset;
  };
  const Pin Pins[] = {
      {"x86", 0x4d1b39bb1df569bcull, 0xfd9d6bb8df719575ull},
      {"mips", 0x91b633bb97d0e352ull, 0xdea701263fe5d5b7ull},
      {"sparc", 0xc11adb877f649438ull, 0x5fff419a2e5e70daull},
      {"alpha", 0x170dd309956a066eull, 0xaa23cc84eb6c7c34ull},
      {"vm64", 0x8be62e0cd6ca39ceull, 0x4ccc6cd7219670ecull},
  };
  for (const Pin &P : Pins) {
    auto T = cantFail(targets::makeTarget(P.Target));
    CompiledTables Full = cantFail(OfflineTableGen(T->Fixed).generate());
    EXPECT_EQ(Full.fingerprint(), P.Full) << P.Target;
    GrammarPartition Part = GrammarPartition::compute(T->G);
    CompiledTables Subset =
        cantFail(OfflineTableGen(T->G).generateSubset(Part.InPartition));
    EXPECT_EQ(Subset.fingerprint(), P.Subset) << P.Target;
    // One table format: over a dyn-free grammar the hybrid's partition is
    // every operator, and its subset generation is the full generation.
    GrammarPartition FixedPart = GrammarPartition::compute(T->Fixed);
    CompiledTables FixedSubset = cantFail(
        OfflineTableGen(T->Fixed).generateSubset(FixedPart.InPartition));
    EXPECT_EQ(FixedSubset.fingerprint(), P.Full) << P.Target;
  }

  // The 50-operator --smoke sibling of bench_p3_backends' P3b grammar.
  SynthesisParams S;
  S.NumLeafOps = 10;
  S.NumUnaryOps = 16;
  S.NumBinaryOps = 24;
  S.NumNts = 6;
  S.RulesPerOp = 6;
  S.MaxCost = 3;
  S.Seed = 97;
  Grammar G = cantFail(synthesizeGrammar(S));
  EXPECT_EQ(cantFail(OfflineTableGen(G).generate()).fingerprint(),
            0xbfaef3fc7d914764ull);
}

TEST(Offline, FingerprintDiscriminatesGrammars) {
  Grammar A = cantFail(parseGrammar(test::runningExampleFixedText()));
  SynthesisParams P;
  P.Seed = 7;
  Grammar B = cantFail(synthesizeGrammar(P));
  CompiledTables TA = cantFail(OfflineTableGen(A).generate());
  CompiledTables TB = cantFail(OfflineTableGen(B).generate());
  EXPECT_NE(TA.fingerprint(), TB.fingerprint());
}

TEST(Offline, LabelerMatchesDPOnPaperExample) {
  Grammar G = cantFail(parseGrammar(test::runningExampleFixedText()));
  auto B = cantFail(LabelerBackend::create(BackendKind::Offline, G));
  ir::IRFunction F;
  test::buildStoreTree(F, G, 1, 1, 2);
  DPLabeling Ref = DPLabeler(G).label(F);
  LabelerScratch Scratch;
  const Labeling &L = B->labelFunction(F, Scratch);
  for (const ir::Node *N : F.nodes())
    for (NonterminalId Nt = 0; Nt < G.numNonterminals(); ++Nt)
      EXPECT_EQ(L.ruleFor(*N, Nt), Ref.ruleFor(*N, Nt))
          << "node " << N->id() << " nt " << G.nonterminalName(Nt);
}

class OfflineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OfflineProperty, AgreesWithOnDemandExactly) {
  // Offline and on-demand both produce delta-normalized states, so their
  // costs and rules must agree *exactly* on every node.
  Grammar G = cantFail(parseGrammar(test::runningExampleFixedText()));
  auto Off = cantFail(LabelerBackend::create(BackendKind::Offline, G));
  const CompiledTables &T = *Off->tables();
  OnDemandAutomaton A(G);

  ir::IRFunction F;
  test::RandomTreeBuilder B(G, GetParam());
  for (int I = 0; I < 6; ++I)
    F.addRoot(B.build(F, 50));
  A.labelFunction(F);
  std::vector<StateId> OnDemandStates;
  for (const ir::Node *N : F.nodes())
    OnDemandStates.push_back(N->label());
  LabelerScratch Scratch;
  Off->labelFunction(F, Scratch);

  for (const ir::Node *N : F.nodes()) {
    const State *SOff = T.stateById(N->label());
    const State *SOn = A.stateTable().byId(OnDemandStates[N->id()]);
    for (NonterminalId Nt = 0; Nt < G.numNonterminals(); ++Nt) {
      ASSERT_EQ(SOff->costOf(Nt), SOn->costOf(Nt))
          << "node " << N->id() << " nt " << G.nonterminalName(Nt);
      ASSERT_EQ(SOff->ruleOf(Nt), SOn->ruleOf(Nt));
    }
  }
}

TEST_P(OfflineProperty, OnDemandStatesAreSubsetOfOffline) {
  Grammar G = cantFail(parseGrammar(test::runningExampleFixedText()));
  CompiledTables T = cantFail(OfflineTableGen(G).generate());
  OnDemandAutomaton A(G);
  ir::IRFunction F;
  test::RandomTreeBuilder B(G, GetParam() * 7919);
  for (int I = 0; I < 6; ++I)
    F.addRoot(B.build(F, 40));
  A.labelFunction(F);

  // Collect offline state contents.
  std::set<std::string> OfflineContents;
  for (const State *S : T.stateTable().states()) {
    std::string Sig = std::to_string(S->Op);
    for (NonterminalId Nt = 0; Nt < G.numNonterminals(); ++Nt) {
      Sig += ':' + std::to_string(S->costOf(Nt).raw());
      Sig += '/' + std::to_string(S->ruleOf(Nt));
    }
    OfflineContents.insert(Sig);
  }
  EXPECT_LE(A.numStates(), T.stats().NumStates);
  for (const State *S : A.stateTable().states()) {
    std::string Sig = std::to_string(S->Op);
    for (NonterminalId Nt = 0; Nt < G.numNonterminals(); ++Nt) {
      Sig += ':' + std::to_string(S->costOf(Nt).raw());
      Sig += '/' + std::to_string(S->ruleOf(Nt));
    }
    EXPECT_TRUE(OfflineContents.count(Sig))
        << "on-demand state not in exhaustive automaton";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OfflineProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(Offline, StrippedGrammarRoundTrip) {
  // The standard workflow for grammars with dynamic costs: strip, then
  // generate offline tables for the fixed-cost variant.
  Grammar G = cantFail(parseGrammar(test::runningExampleText()));
  Grammar Fixed = cantFail(withoutDynCostRules(G));
  auto B = cantFail(LabelerBackend::create(BackendKind::Offline, Fixed));
  ir::IRFunction F;
  test::buildStoreTree(F, Fixed, 1, 1, 2);
  LabelerScratch Scratch;
  const Labeling &L = B->labelFunction(F, Scratch);
  // Without rule 6, the best stmt cover costs 3 (rules 5+4+3).
  Selection S = cantFail(reduce(Fixed, F, L));
  EXPECT_EQ(S.TotalCost, Cost(3));
}

TEST(Offline, SelectionsMatchDP) {
  Grammar G = cantFail(parseGrammar(test::runningExampleFixedText()));
  auto B = cantFail(LabelerBackend::create(BackendKind::Offline, G));
  ir::IRFunction F;
  test::buildStoreTree(F, G, 1, 1, 2);
  test::buildStoreTree(F, G, 2, 9, 4);
  DPLabeling Ref = DPLabeler(G).label(F);
  Selection SRef = cantFail(reduce(G, F, Ref));
  LabelerScratch Scratch;
  const Labeling &L = B->labelFunction(F, Scratch);
  Selection SOff = cantFail(reduce(G, F, L));
  ASSERT_EQ(SRef.Matches.size(), SOff.Matches.size());
  for (std::size_t I = 0; I < SRef.Matches.size(); ++I)
    EXPECT_EQ(SRef.Matches[I].Source, SOff.Matches[I].Source);
  EXPECT_EQ(SRef.TotalCost, SOff.TotalCost);
}

TEST(Offline, GenerationTimeRecorded) {
  Grammar G = cantFail(parseGrammar(test::runningExampleFixedText()));
  CompiledTables T = cantFail(OfflineTableGen(G).generate());
  EXPECT_GE(T.stats().GenerationMs, 0.0);
  EXPECT_GT(T.stats().StatesComputed, 0u);
}

TEST(Offline, DumpLoadRoundTripsTheAutomaton) {
  // Serialization is keyed by fingerprint(): load() must reconstruct the
  // exact automaton (states, leaf map, representer maps, dense tables)
  // and prove it by recomputing the stored fingerprint.
  Grammar G = cantFail(parseGrammar(test::runningExampleFixedText()));
  CompiledTables T = cantFail(OfflineTableGen(G).generate());

  std::stringstream SS(std::ios::in | std::ios::out | std::ios::binary);
  cantFail(T.dump(SS));
  CompiledTables L = cantFail(CompiledTables::load(SS, G));

  EXPECT_EQ(L.fingerprint(), T.fingerprint());
  EXPECT_EQ(L.stats().NumStates, T.stats().NumStates);
  EXPECT_EQ(L.stats().NumTransitions, T.stats().NumTransitions);
  EXPECT_EQ(L.stats().TableBytes, T.stats().TableBytes);
  EXPECT_TRUE(L.stats().Loaded);
  EXPECT_FALSE(T.stats().Loaded);

  // Loaded tables label exactly like the generating tables.
  ir::IRFunction F;
  test::buildStoreTree(F, G, 1, 1, 2);
  LabelerScratch Scratch;
  auto Ref = cantFail(LabelerBackend::createWithTables(
      BackendKind::Offline, G, nullptr, LabelerBackend::Options(),
      std::move(T)));
  Ref->labelFunction(F, Scratch);
  std::vector<std::uint32_t> RefLabels;
  for (const ir::Node *N : F.nodes())
    RefLabels.push_back(N->label());
  auto Loaded = cantFail(LabelerBackend::createWithTables(
      BackendKind::Offline, G, nullptr, LabelerBackend::Options(),
      std::move(L)));
  Loaded->labelFunction(F, Scratch);
  for (std::size_t I = 0; I < F.nodes().size(); ++I)
    EXPECT_EQ(F.nodes()[I]->label(), RefLabels[I]);
}

TEST(Offline, LoadRejectsWrongGrammar) {
  Grammar A = cantFail(parseGrammar(test::runningExampleFixedText()));
  SynthesisParams P;
  P.Seed = 7;
  Grammar B = cantFail(synthesizeGrammar(P));
  CompiledTables T = cantFail(OfflineTableGen(A).generate());

  std::stringstream SS(std::ios::in | std::ios::out | std::ios::binary);
  cantFail(T.dump(SS));
  Expected<CompiledTables> L = CompiledTables::load(SS, B);
  ASSERT_FALSE(static_cast<bool>(L));
  EXPECT_EQ(L.kind(), ErrorKind::MalformedInput);
}

TEST(Offline, LoadRejectsDynamicCostGrammar) {
  Grammar Fixed = cantFail(parseGrammar(test::runningExampleFixedText()));
  Grammar Dyn = cantFail(parseGrammar(test::runningExampleText()));
  CompiledTables T = cantFail(OfflineTableGen(Fixed).generate());
  std::stringstream SS(std::ios::in | std::ios::out | std::ios::binary);
  cantFail(T.dump(SS));
  Expected<CompiledTables> L = CompiledTables::load(SS, Dyn);
  ASSERT_FALSE(static_cast<bool>(L));
  EXPECT_EQ(L.kind(), ErrorKind::UnsupportedDynamicCosts);
}

TEST(Offline, SubsetGenerationCoversOnlyThePartition) {
  // Partitioned generation over the running example's static set
  // {Reg, Load, Plus}: the dyn-cost Store is excluded, so generation
  // succeeds where the full generator reports UnsupportedDynamicCosts.
  Grammar G = cantFail(parseGrammar(test::runningExampleText()));
  GrammarPartition P = GrammarPartition::compute(G);
  ASSERT_EQ(P.numDynamic(), 1u);
  CompiledTables T =
      cantFail(OfflineTableGen(G).generateSubset(P.InPartition));
  EXPECT_TRUE(T.isPartitioned());
  EXPECT_EQ(T.partitionMembership(), P.InPartition);
  EXPECT_GT(T.stats().NumStates, 0u);
  for (OperatorId Op = 0; Op < G.numOperators(); ++Op)
    EXPECT_EQ(T.inPartition(Op), P.contains(Op)) << G.operatorName(Op);

  // Full-coverage tables (over the fixed variant) are not "partitioned":
  // every operator is a member.
  Grammar Fixed = cantFail(parseGrammar(test::runningExampleFixedText()));
  CompiledTables Full = cantFail(OfflineTableGen(Fixed).generate());
  EXPECT_FALSE(Full.isPartitioned());

  // Membership is part of the identity: same grammar, different subset,
  // different fingerprint.
  std::vector<std::uint8_t> Narrower = P.InPartition;
  Narrower[G.findOperator("Plus")] = 0;
  CompiledTables N = cantFail(OfflineTableGen(G).generateSubset(Narrower));
  EXPECT_NE(N.fingerprint(), T.fingerprint());
  EXPECT_NE(N.partitionFingerprint(), T.partitionFingerprint());
}

TEST(Offline, SubsetGenerationIsDeterministic) {
  Grammar G = cantFail(parseGrammar(test::runningExampleText()));
  GrammarPartition P = GrammarPartition::compute(G);
  CompiledTables A =
      cantFail(OfflineTableGen(G).generateSubset(P.InPartition));
  CompiledTables B =
      cantFail(OfflineTableGen(G).generateSubset(P.InPartition));
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
}

TEST(Offline, PartitionedDumpLoadRoundTrips) {
  // The hybrid's persistence path: partitioned tables dump and load over
  // the *dynamic-cost* grammar — legal because every member operator is
  // dyn-free — and the load reconstructs membership, fingerprints, and
  // states exactly, without regenerating (Loaded is the marker).
  Grammar G = cantFail(parseGrammar(test::runningExampleText()));
  GrammarPartition P = GrammarPartition::compute(G);
  CompiledTables T =
      cantFail(OfflineTableGen(G).generateSubset(P.InPartition));

  std::stringstream SS(std::ios::in | std::ios::out | std::ios::binary);
  cantFail(T.dump(SS));
  CompiledTables L = cantFail(CompiledTables::load(SS, G));
  EXPECT_EQ(L.fingerprint(), T.fingerprint());
  EXPECT_EQ(L.partitionFingerprint(), T.partitionFingerprint());
  EXPECT_EQ(L.partitionMembership(), P.InPartition);
  EXPECT_TRUE(L.isPartitioned());
  EXPECT_EQ(L.stats().NumStates, T.stats().NumStates);
  EXPECT_TRUE(L.stats().Loaded);
}

TEST(Offline, LoadRejectsCorruptedPartitionMembership) {
  Grammar G = cantFail(parseGrammar(test::runningExampleText()));
  GrammarPartition P = GrammarPartition::compute(G);
  CompiledTables T =
      cantFail(OfflineTableGen(G).generateSubset(P.InPartition));
  std::stringstream SS(std::ios::in | std::ios::out | std::ios::binary);
  cantFail(T.dump(SS));
  std::string Blob = SS.str();

  // The membership block sits right after the fixed-size header (8-byte
  // magic, u32 version, two u64 fingerprints, three u32 counts = 40
  // bytes). Flipping a static operator's byte to 0 keeps every byte valid
  // (0/1) but breaks the stored partition fingerprint.
  constexpr std::size_t MembershipOff = 8 + 4 + 8 + 8 + 3 * 4;
  ASSERT_GE(Blob.size(), MembershipOff + P.InPartition.size());
  ASSERT_TRUE(std::equal(
      P.InPartition.begin(), P.InPartition.end(),
      reinterpret_cast<const std::uint8_t *>(Blob.data()) + MembershipOff))
      << "dump header layout changed; update MembershipOff";
  std::string Corrupt = Blob;
  for (std::size_t I = 0; I < P.InPartition.size(); ++I)
    if (Corrupt[MembershipOff + I] == 1) {
      Corrupt[MembershipOff + I] = 0;
      break;
    }
  std::istringstream In(Corrupt);
  Expected<CompiledTables> L = CompiledTables::load(In, G);
  ASSERT_FALSE(static_cast<bool>(L));
  EXPECT_EQ(L.kind(), ErrorKind::MalformedInput);
  EXPECT_NE(L.message().find("partition"), std::string::npos) << L.message();
}

TEST(Offline, LoadRejectsCorruptionAndTruncation) {
  Grammar G = cantFail(parseGrammar(test::runningExampleFixedText()));
  CompiledTables T = cantFail(OfflineTableGen(G).generate());
  std::stringstream SS(std::ios::in | std::ios::out | std::ios::binary);
  cantFail(T.dump(SS));
  std::string Blob = SS.str();

  // Not a dump at all.
  {
    std::istringstream Bad("definitely not a table dump");
    Expected<CompiledTables> L = CompiledTables::load(Bad, G);
    ASSERT_FALSE(static_cast<bool>(L));
    EXPECT_EQ(L.kind(), ErrorKind::MalformedInput);
    EXPECT_NE(L.message().find("magic"), std::string::npos);
  }
  // Truncated mid-stream.
  {
    std::istringstream Trunc(Blob.substr(0, Blob.size() / 2));
    Expected<CompiledTables> L = CompiledTables::load(Trunc, G);
    ASSERT_FALSE(static_cast<bool>(L));
    EXPECT_EQ(L.kind(), ErrorKind::MalformedInput);
  }
  // One flipped payload byte: the shape still parses, the fingerprint
  // cannot. (Flip late in the blob, inside the dense tables.)
  {
    std::string Corrupt = Blob;
    Corrupt[Corrupt.size() - 3] ^= 0x40;
    std::istringstream In(Corrupt);
    Expected<CompiledTables> L = CompiledTables::load(In, G);
    ASSERT_FALSE(static_cast<bool>(L));
    EXPECT_EQ(L.kind(), ErrorKind::MalformedInput);
  }
}

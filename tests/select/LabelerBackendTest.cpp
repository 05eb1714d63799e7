//===- tests/select/LabelerBackendTest.cpp -----------------------------------===//
//
// Part of the odburg project.
//
// The pluggable labeling-backend layer. Contracts under test: names parse
// and round-trip; the factory builds every kind and reports typed errors
// (UnsupportedDynamicCosts for offline x dynamic grammars); each backend
// labels equivalently to the reference DP labeler through the uniform
// labelFunction(F, scratch) shape; one scratch serves many functions
// and survives rebinding across backends and grammars; the work counters
// account for every node as exactly one offline hit or one cache probe;
// and the automaton, backend and session report one memory footprint.
//
//===----------------------------------------------------------------------===//

#include "select/LabelerBackend.h"

#include "grammar/GrammarParser.h"
#include "pipeline/CompileService.h"
#include "select/Partition.h"
#include "targets/Target.h"
#include "workload/Synthetic.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <vector>

using namespace odburg;

namespace {

/// A mixed-profile corpus of mid-sized functions over \p G.
std::vector<ir::IRFunction> makeCorpus(const Grammar &G) {
  std::vector<ir::IRFunction> Corpus;
  for (const char *Name : {"gzip-like", "mcf-like", "art-like"}) {
    const workload::Profile *P = workload::findProfile(Name);
    EXPECT_NE(P, nullptr);
    std::vector<ir::IRFunction> Fns = cantFail(
        workload::generateBatch(*P, G, /*Count=*/4, /*TargetNodes=*/1200));
    for (ir::IRFunction &F : Fns)
      Corpus.push_back(std::move(F));
  }
  return Corpus;
}

} // namespace

TEST(LabelerBackend, NamesParseAndRoundTrip) {
  for (BackendKind K : {BackendKind::DP, BackendKind::Offline,
                        BackendKind::OnDemand, BackendKind::Hybrid}) {
    Expected<BackendKind> Parsed = parseBackendKind(backendName(K));
    ASSERT_TRUE(static_cast<bool>(Parsed)) << backendName(K);
    EXPECT_EQ(*Parsed, K);
  }
  // The CLI also accepts the paper's hyphenation.
  EXPECT_EQ(*parseBackendKind("on-demand"), BackendKind::OnDemand);

  Expected<BackendKind> Bad = parseBackendKind("burg");
  ASSERT_FALSE(static_cast<bool>(Bad));
  EXPECT_EQ(Bad.kind(), ErrorKind::UnknownBackend);
  EXPECT_NE(Bad.message().find("burg"), std::string::npos);
  EXPECT_NE(Bad.message().find("ondemand"), std::string::npos);
}

TEST(LabelerBackend, FactoryBuildsEveryKindOnStaticGrammar) {
  Grammar G = cantFail(parseGrammar(test::runningExampleFixedText()));
  for (BackendKind K : {BackendKind::DP, BackendKind::Offline,
                        BackendKind::OnDemand, BackendKind::Hybrid}) {
    Expected<std::unique_ptr<LabelerBackend>> B =
        LabelerBackend::create(K, G);
    ASSERT_TRUE(static_cast<bool>(B)) << B.message();
    EXPECT_EQ((*B)->kind(), K);
  }
}

TEST(LabelerBackend, OfflineRejectsDynamicCostsWithTypedError) {
  Grammar G = cantFail(parseGrammar(test::runningExampleText()));
  DynCostTable Dyn =
      cantFail(DynCostTable::build(G, test::runningExampleHooks()));
  Expected<std::unique_ptr<LabelerBackend>> B =
      LabelerBackend::create(BackendKind::Offline, G, &Dyn);
  ASSERT_FALSE(static_cast<bool>(B));
  EXPECT_EQ(B.kind(), ErrorKind::UnsupportedDynamicCosts);
  EXPECT_NE(B.message().find("dynamic costs"), std::string::npos);

  // The same grammar is fine on the engines that evaluate hooks.
  for (BackendKind K : {BackendKind::DP, BackendKind::OnDemand}) {
    Expected<std::unique_ptr<LabelerBackend>> OK =
        LabelerBackend::create(K, G, &Dyn);
    ASSERT_TRUE(static_cast<bool>(OK)) << OK.message();
    EXPECT_TRUE((*OK)->supportsDynCosts());
  }
}

TEST(LabelerBackend, OfflineStateLimitSurfacesTyped) {
  Grammar G = cantFail(parseGrammar(test::runningExampleFixedText()));
  LabelerBackend::Options Opts;
  Opts.OfflineMaxStates = 1;
  Expected<std::unique_ptr<LabelerBackend>> B =
      LabelerBackend::create(BackendKind::Offline, G, nullptr, Opts);
  ASSERT_FALSE(static_cast<bool>(B));
  EXPECT_EQ(B.kind(), ErrorKind::StateLimitExceeded);
}

TEST(LabelerBackend, AllBackendsLabelEquivalentlyThroughOneScratch) {
  Grammar G = cantFail(parseGrammar(test::runningExampleFixedText()));

  // Several functions through the same scratch per backend — the batch
  // reuse pattern of CompileService's workers.
  std::vector<ir::IRFunction> Corpus(3);
  test::buildStoreTree(Corpus[0], G, 1, 1, 2);
  test::buildStoreTree(Corpus[1], G, 2, 9, 4);
  test::buildStoreTree(Corpus[2], G, 3, 3, 3);

  DPLabeler Ref(G);
  std::vector<DPLabeling> Refs;
  for (ir::IRFunction &F : Corpus)
    Refs.push_back(Ref.label(F));

  for (BackendKind K : {BackendKind::DP, BackendKind::Offline,
                        BackendKind::OnDemand, BackendKind::Hybrid}) {
    auto B = cantFail(LabelerBackend::create(K, G));
    LabelerScratch Scratch;
    for (std::size_t I = 0; I < Corpus.size(); ++I) {
      SelectionStats Stats;
      const Labeling &L = B->labelFunction(Corpus[I], Scratch, &Stats);
      EXPECT_EQ(Stats.NodesLabeled, Corpus[I].size()) << backendName(K);
      test::expectEquivalent(G, Corpus[I], Refs[I], L);
    }
  }
}

TEST(LabelerBackend, DynamicGrammarBackendsAgreeWithHooks) {
  Grammar G = cantFail(parseGrammar(test::runningExampleText()));
  DynCostTable Dyn =
      cantFail(DynCostTable::build(G, test::runningExampleHooks()));
  ir::IRFunction F;
  test::buildStoreTree(F, G, 1, 1, 2); // RMW applies (equal addresses).
  test::buildStoreTree(F, G, 2, 9, 4); // RMW does not apply.

  DPLabeling Ref = DPLabeler(G, &Dyn).label(F);
  for (BackendKind K :
       {BackendKind::DP, BackendKind::OnDemand, BackendKind::Hybrid}) {
    auto B = cantFail(LabelerBackend::create(K, G, &Dyn));
    LabelerScratch Scratch;
    const Labeling &L = B->labelFunction(F, Scratch);
    test::expectEquivalent(G, F, Ref, L);
  }
}

TEST(LabelerBackend, OfflineErrorNamesDynOperatorsAndSuggestsHybrid) {
  // Satellite of the hybrid work: the offline rejection is actionable —
  // it names the offending operator(s) and points at --backend=hybrid.
  Grammar G = cantFail(parseGrammar(test::runningExampleText()));
  Expected<std::unique_ptr<LabelerBackend>> B =
      LabelerBackend::create(BackendKind::Offline, G);
  ASSERT_FALSE(static_cast<bool>(B));
  EXPECT_EQ(B.kind(), ErrorKind::UnsupportedDynamicCosts);
  EXPECT_NE(B.message().find("'Store'"), std::string::npos) << B.message();
  EXPECT_NE(B.message().find("hybrid"), std::string::npos) << B.message();
}

TEST(LabelerBackend, PartitionSplitsStaticAndDynamicOperators) {
  // Running example: rule 6's ?memop hook is rooted at Store; the interior
  // Plus/Load fragments are 0-cost fixed helper rules, so only Store lands
  // in the dynamic remainder.
  Grammar G = cantFail(parseGrammar(test::runningExampleText()));
  GrammarPartition P = GrammarPartition::compute(G);
  EXPECT_EQ(P.numStatic() + P.numDynamic(), G.numOperators());
  EXPECT_EQ(P.numDynamic(), 1u);
  ASSERT_EQ(P.DynOps.size(), 1u);
  EXPECT_EQ(G.operatorName(P.DynOps[0]), "Store");
  EXPECT_FALSE(P.contains(P.DynOps[0]));
  EXPECT_TRUE(P.contains(G.findOperator("Plus")));
  EXPECT_EQ(P.describeDynOps(G), "'Store'");

  // On the fixed variant everything is static.
  Grammar Fixed = cantFail(parseGrammar(test::runningExampleFixedText()));
  EXPECT_EQ(GrammarPartition::compute(Fixed).numDynamic(), 0u);
}

TEST(LabelerBackend, HybridServesStaticPartitionFromTables) {
  Grammar G = cantFail(parseGrammar(test::runningExampleText()));
  DynCostTable Dyn =
      cantFail(DynCostTable::build(G, test::runningExampleHooks()));
  auto B = cantFail(LabelerBackend::create(BackendKind::Hybrid, G, &Dyn));
  EXPECT_TRUE((*B).supportsDynCosts());
  EXPECT_EQ(B->kind(), BackendKind::Hybrid);
  // Table bytes ride on top of the automaton's footprint.
  EXPECT_GT(B->memoryBytes(), 0u);

  ir::IRFunction F;
  test::buildStoreTree(F, G, 1, 1, 2);
  LabelerScratch Scratch;
  SelectionStats Stats;
  B->labelFunction(F, Scratch, &Stats);
  // Every node except the dyn-remainder Store roots resolves by direct
  // offline-table indexing.
  EXPECT_GT(Stats.OfflineHits, 0u);
  EXPECT_EQ(Stats.OfflineHits + 1, Stats.NodesLabeled);
}

TEST(LabelerBackend, HybridCreateWithTablesChecksPartitionShape) {
  Grammar G = cantFail(parseGrammar(test::runningExampleText()));
  DynCostTable Dyn =
      cantFail(DynCostTable::build(G, test::runningExampleHooks()));
  GrammarPartition P = GrammarPartition::compute(G);

  // Matching membership: accepted, and labels like a freshly built hybrid.
  CompiledTables Good =
      cantFail(OfflineTableGen(G).generateSubset(P.InPartition));
  auto B = cantFail(LabelerBackend::createWithTables(
      BackendKind::Hybrid, G, &Dyn, LabelerBackend::Options(),
      std::move(Good)));
  ir::IRFunction F;
  test::buildStoreTree(F, G, 1, 1, 2);
  DPLabeling Ref = DPLabeler(G, &Dyn).label(F);
  LabelerScratch Scratch;
  test::expectEquivalent(G, F, Ref, B->labelFunction(F, Scratch, nullptr));

  // A different operator subset (here: Plus also excluded) is a typed
  // mismatch, not a silent mislabel.
  std::vector<std::uint8_t> Wrong = P.InPartition;
  Wrong[G.findOperator("Plus")] = 0;
  CompiledTables Narrow = cantFail(OfflineTableGen(G).generateSubset(Wrong));
  Expected<std::unique_ptr<LabelerBackend>> Bad =
      LabelerBackend::createWithTables(BackendKind::Hybrid, G, &Dyn,
                                       LabelerBackend::Options(),
                                       std::move(Narrow));
  ASSERT_FALSE(static_cast<bool>(Bad));
  EXPECT_EQ(Bad.kind(), ErrorKind::MalformedInput);
  EXPECT_NE(Bad.message().find("partition"), std::string::npos);
}

TEST(LabelerBackend, OfflineCreateWithTablesRejectsPartitionedTables) {
  // A hybrid's partitioned tables have no rows for the dyn-cost
  // remainder, which the offline backend could not label: a typed error,
  // never a crash at the first excluded node. Full tables are accepted.
  Grammar G = cantFail(parseGrammar(test::runningExampleText()));
  GrammarPartition P = GrammarPartition::compute(G);
  ASSERT_GT(P.numDynamic(), 0u);
  CompiledTables Part =
      cantFail(OfflineTableGen(G).generateSubset(P.InPartition));
  Expected<std::unique_ptr<LabelerBackend>> Bad =
      LabelerBackend::createWithTables(BackendKind::Offline, G, nullptr,
                                       LabelerBackend::Options(),
                                       std::move(Part));
  ASSERT_FALSE(static_cast<bool>(Bad));
  EXPECT_EQ(Bad.kind(), ErrorKind::MalformedInput);
  EXPECT_NE(Bad.message().find("partition"), std::string::npos)
      << Bad.message();

  Grammar Fixed = cantFail(parseGrammar(test::runningExampleFixedText()));
  CompiledTables Full = cantFail(OfflineTableGen(Fixed).generate());
  auto B = cantFail(LabelerBackend::createWithTables(
      BackendKind::Offline, Fixed, nullptr, LabelerBackend::Options(),
      std::move(Full)));
  EXPECT_EQ(B->kind(), BackendKind::Offline);
  ASSERT_NE(B->tables(), nullptr);

  // Backends that label from no tables take none.
  CompiledTables Spare = cantFail(OfflineTableGen(Fixed).generate());
  Expected<std::unique_ptr<LabelerBackend>> OD =
      LabelerBackend::createWithTables(BackendKind::OnDemand, Fixed, nullptr,
                                       LabelerBackend::Options(),
                                       std::move(Spare));
  ASSERT_FALSE(static_cast<bool>(OD));
  EXPECT_EQ(OD.kind(), ErrorKind::MalformedInput);
}

TEST(LabelerBackend, IntrospectionMatchesEngines) {
  Grammar G = cantFail(parseGrammar(test::runningExampleFixedText()));
  ir::IRFunction F;
  test::buildStoreTree(F, G, 1, 1, 2);

  auto DP = cantFail(LabelerBackend::create(BackendKind::DP, G));
  EXPECT_EQ(DP->numStates(), 0u);
  EXPECT_EQ(DP->memoryBytes(), 0u);

  auto Off = cantFail(LabelerBackend::create(BackendKind::Offline, G));
  EXPECT_FALSE(Off->supportsDynCosts());
  EXPECT_GT(Off->numStates(), 0u);
  EXPECT_GT(Off->memoryBytes(), 0u);
  // Offline tables exist in full before any labeling.
  unsigned Before = Off->numStates();
  LabelerScratch Scratch;
  Off->labelFunction(F, Scratch);
  EXPECT_EQ(Off->numStates(), Before);

  auto OD = cantFail(LabelerBackend::create(BackendKind::OnDemand, G));
  EXPECT_EQ(OD->numStates(), 0u); // Lazy: nothing before the first node.
  OD->labelFunction(F, Scratch);
  EXPECT_GT(OD->numStates(), 0u);
  EXPECT_LE(OD->numStates(), Off->numStates());
}

TEST(LabelerBackend, CountersAccountOneProbeOrOfflineHitPerNode) {
  // On one thread, every node the offline partition does not resolve is
  // exactly one transition-cache probe, and every probe either hits or
  // computes one state. No engine bumps the retired L1/dense counters.
  auto T = cantFail(targets::makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);
  for (BackendKind K : {BackendKind::OnDemand, BackendKind::Hybrid}) {
    auto B = cantFail(LabelerBackend::create(K, T->G, &T->Dyn));
    LabelerScratch Scratch;
    SelectionStats Total;
    std::uint64_t LastProbes = 0, LastHits = 0;
    for (int Pass = 0; Pass < 3; ++Pass) {
      SelectionStats PassStats;
      for (ir::IRFunction &F : Corpus)
        B->labelFunction(F, Scratch, &PassStats);
      Total += PassStats;
      EXPECT_GE(Total.CacheProbes, LastProbes) << backendName(K);
      EXPECT_GE(Total.CacheHits, LastHits) << backendName(K);
      LastProbes = Total.CacheProbes;
      LastHits = Total.CacheHits;
      EXPECT_EQ(Total.CacheProbes, Total.NodesLabeled - Total.OfflineHits)
          << backendName(K);
      EXPECT_EQ(Total.CacheHits + Total.StatesComputed, Total.CacheProbes)
          << backendName(K);
      // Warm passes resolve every probe from the cache.
      if (Pass > 0) {
        EXPECT_EQ(PassStats.StatesComputed, 0u) << backendName(K);
        EXPECT_EQ(PassStats.CacheHits, PassStats.CacheProbes)
            << backendName(K);
      }
    }
    EXPECT_GT(Total.CacheProbes, 0u) << backendName(K);
    if (K == BackendKind::Hybrid)
      EXPECT_GT(Total.OfflineHits, 0u);
    else
      EXPECT_EQ(Total.OfflineHits, 0u);
    EXPECT_EQ(Total.L1Probes, 0u);
    EXPECT_EQ(Total.L1Hits, 0u);
    EXPECT_EQ(Total.DenseProbes, 0u);
    EXPECT_EQ(Total.DenseHits, 0u);
  }
}

TEST(LabelerBackend, MemoryBytesAgreeAcrossAutomatonBackendAndSession) {
  auto T = cantFail(targets::makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->Fixed);
  std::vector<ir::IRFunction *> Ptrs;
  for (ir::IRFunction &F : Corpus)
    Ptrs.push_back(&F);

  for (BackendKind K : {BackendKind::OnDemand, BackendKind::Hybrid}) {
    pipeline::CompileService::Options Opts;
    Opts.Backend = K;
    Opts.Workers = 2;
    auto Svc =
        cantFail(pipeline::CompileService::create(T->Fixed, nullptr, Opts));
    cantFail(pipeline::compileAll(*Svc, Ptrs));
    std::size_t Cold = Svc->backend().memoryBytes();
    cantFail(pipeline::compileAll(*Svc, Ptrs));

    const auto &B = static_cast<const OnDemandBackend &>(Svc->backend());
    const OnDemandAutomaton &A = B.automaton();
    EXPECT_GT(A.memoryBytes(), 0u) << backendName(K);
    // A warm pass adds nothing. The on-demand backend's number is its
    // automaton's, the hybrid's adds its offline tables.
    EXPECT_EQ(B.memoryBytes(), Cold) << backendName(K);
    const CompiledTables *Tables = B.tables();
    ASSERT_EQ(Tables != nullptr, K == BackendKind::Hybrid) << backendName(K);
    std::size_t TableBytes = Tables ? Tables->stats().TableBytes : 0;
    EXPECT_EQ(B.memoryBytes(), A.memoryBytes() + TableBytes)
        << backendName(K);
  }
}

TEST(LabelerBackend, ScratchReboundAcrossGrammarsStaysCorrect) {
  // One scratch labels x86 functions, then moves to a mips backend whose
  // state ids mean different things. Its labeling must match DP exactly,
  // as a fresh scratch's does.
  auto TX = cantFail(targets::makeTarget("x86"));
  auto TM = cantFail(targets::makeTarget("mips"));
  std::vector<ir::IRFunction> CX = makeCorpus(TX->G);
  std::vector<ir::IRFunction> CM = makeCorpus(TM->G);

  LabelerScratch Shared;
  auto BX = cantFail(
      LabelerBackend::create(BackendKind::OnDemand, TX->G, &TX->Dyn));
  for (ir::IRFunction &F : CX)
    BX->labelFunction(F, Shared);

  DPLabeler Ref(TM->G, &TM->Dyn);
  for (BackendKind K : {BackendKind::OnDemand, BackendKind::Hybrid,
                        BackendKind::DP}) {
    auto BM = cantFail(LabelerBackend::create(K, TM->G, &TM->Dyn));
    for (ir::IRFunction &F : CM) {
      DPLabeling Want = Ref.label(F);
      test::expectEquivalent(TM->G, F, Want, BM->labelFunction(F, Shared));
    }
  }
}

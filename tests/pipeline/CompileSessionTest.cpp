//===- tests/pipeline/CompileSessionTest.cpp ---------------------------------===//
//
// Part of the odburg project.
//
// The end-to-end compile pipeline. Contracts under test: a CompileSession
// batch is equivalent to the one-off label/reduce/emit calls it replaces;
// the concatenated assembly and total cost are byte-identical for any
// thread count; per-function failures are surfaced as diagnostics without
// poisoning the rest of the batch; and the shared automaton stays warm
// across batches.
//
//===----------------------------------------------------------------------===//

#include "pipeline/CompileSession.h"

#include "grammar/GrammarParser.h"
#include "select/DPLabeler.h"
#include "support/SmallVector.h"
#include "targets/Target.h"
#include "workload/Corpus.h"
#include "workload/Synthetic.h"

#include <gtest/gtest.h>

#include <vector>

using namespace odburg;
using namespace odburg::pipeline;
using namespace odburg::targets;
using namespace odburg::workload;

namespace {

std::vector<ir::IRFunction> makeCorpus(const Grammar &G) {
  std::vector<ir::IRFunction> Corpus;
  for (const char *Name : {"gzip-like", "mcf-like", "art-like"}) {
    const Profile *P = findProfile(Name);
    EXPECT_NE(P, nullptr);
    std::vector<ir::IRFunction> Fns =
        cantFail(generateBatch(*P, G, /*Count=*/4, /*TargetNodes=*/1200));
    for (ir::IRFunction &F : Fns)
      Corpus.push_back(std::move(F));
  }
  return Corpus;
}

std::vector<ir::IRFunction *> pointers(std::vector<ir::IRFunction> &Fns) {
  std::vector<ir::IRFunction *> Ptrs;
  for (ir::IRFunction &F : Fns)
    Ptrs.push_back(&F);
  return Ptrs;
}

} // namespace

TEST(CompileSession, MatchesOneOffPipelinePerFunction) {
  // The session must reproduce exactly what the ad-hoc DP pipeline
  // produces (PipelineTest establishes DP == automaton; this establishes
  // batch == one-off, including the buffer-backed emit path).
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  CompileSession Session(*T);
  std::vector<CompileResult> Results = Session.compileFunctions(Ptrs, 1);
  ASSERT_EQ(Results.size(), Corpus.size());

  for (std::size_t I = 0; I < Corpus.size(); ++I) {
    ASSERT_TRUE(Results[I].ok()) << Results[I].Diagnostic;
    DPLabeling Ref = DPLabeler(T->G, &T->Dyn).label(Corpus[I]);
    Selection SRef = cantFail(reduce(T->G, Corpus[I], Ref, &T->Dyn));
    AsmBuffer AsmRef;
    cantFail(emitAsm(T->G, Corpus[I], SRef, AsmRef));
    EXPECT_EQ(Results[I].Asm, AsmRef.Text);
    EXPECT_EQ(Results[I].Instructions, AsmRef.Instructions);
    EXPECT_EQ(Results[I].Sel.TotalCost, SRef.TotalCost);
  }
}

TEST(CompileSession, AssemblyAndCostInvariantUnderThreadCount) {
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  std::string RefAsm;
  Cost RefCost = Cost::zero();
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    CompileSession Session(*T);
    std::vector<CompileResult> Results =
        Session.compileFunctions(Ptrs, Threads);
    for (const CompileResult &R : Results)
      ASSERT_TRUE(R.ok()) << R.Diagnostic;
    std::string Asm = CompileSession::concatAsm(Results);
    Cost Total = CompileSession::totalCost(Results);
    EXPECT_FALSE(Asm.empty());
    if (Threads == 1) {
      RefAsm = std::move(Asm);
      RefCost = Total;
    } else {
      EXPECT_EQ(Asm, RefAsm) << "thread count " << Threads
                             << " diverged from serial assembly";
      EXPECT_EQ(Total, RefCost);
    }
  }
}

TEST(CompileSession, WarmSecondBatchComputesNoStates) {
  auto T = cantFail(makeTarget("vm64"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  CompileSession Session(*T);
  SessionStats Cold;
  std::vector<CompileResult> First =
      Session.compileFunctions(Ptrs, 4, &Cold);
  EXPECT_EQ(Cold.Functions, Corpus.size());
  EXPECT_EQ(Cold.Failed, 0u);
  EXPECT_GT(Cold.Label.StatesComputed, 0u);

  SessionStats Warm;
  std::vector<CompileResult> Second =
      Session.compileFunctions(Ptrs, 4, &Warm);
  EXPECT_EQ(Warm.Label.StatesComputed, 0u);
  EXPECT_EQ(Warm.Label.CacheHits, Warm.Label.CacheProbes);
  // Warm output is identical to cold output, and the stats agree with it.
  EXPECT_EQ(CompileSession::concatAsm(First),
            CompileSession::concatAsm(Second));
  EXPECT_EQ(Warm.TotalCost, CompileSession::totalCost(Second));
  std::uint64_t Instructions = 0;
  for (const CompileResult &R : Second)
    Instructions += R.Instructions;
  EXPECT_EQ(Warm.Instructions, Instructions);
}

TEST(CompileSession, SerialEntryPointMatchesBatch) {
  auto T = cantFail(makeTarget("mips"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  CompileSession Batch(*T);
  std::vector<CompileResult> Results = Batch.compileFunctions(Ptrs, 2);

  CompileSession OneByOne(*T);
  for (std::size_t I = 0; I < Corpus.size(); ++I) {
    CompileResult R = OneByOne.compileFunction(Corpus[I]);
    ASSERT_TRUE(R.ok()) << R.Diagnostic;
    EXPECT_EQ(R.Asm, Results[I].Asm);
    EXPECT_EQ(R.Sel.TotalCost, Results[I].Sel.TotalCost);
  }
}

TEST(CompileSession, BackendOptionSelectsEngineAndPreservesOutput) {
  // The same fixed-cost corpus through all three Options::Backend values:
  // identical assembly and cost, correct backend plumbed, engine-typical
  // stats (DP checks rules, offline only indexes, on-demand probes).
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->Fixed);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  std::string RefAsm;
  Cost RefCost = Cost::zero();
  bool HaveRef = false;
  for (BackendKind Kind :
       {BackendKind::DP, BackendKind::Offline, BackendKind::OnDemand}) {
    CompileSession::Options Opts;
    Opts.Backend = Kind;
    auto Session = CompileSession::create(T->Fixed, nullptr, Opts);
    ASSERT_TRUE(static_cast<bool>(Session)) << Session.message();
    EXPECT_EQ((*Session)->backend().kind(), Kind);

    SessionStats Stats;
    std::vector<CompileResult> Results =
        (*Session)->compileFunctions(Ptrs, 2, &Stats);
    for (const CompileResult &R : Results)
      ASSERT_TRUE(R.ok()) << R.Diagnostic;
    std::string Asm = CompileSession::concatAsm(Results);
    Cost Total = CompileSession::totalCost(Results);
    if (!HaveRef) {
      HaveRef = true;
      RefAsm = std::move(Asm);
      RefCost = Total;
    } else {
      EXPECT_EQ(Asm, RefAsm) << backendName(Kind);
      EXPECT_EQ(Total, RefCost) << backendName(Kind);
    }

    switch (Kind) {
    case BackendKind::DP:
      EXPECT_GT(Stats.Label.RuleChecks, 0u);
      EXPECT_EQ(Stats.Label.TableLookups, 0u);
      break;
    case BackendKind::Offline:
      EXPECT_GT(Stats.Label.TableLookups, 0u);
      EXPECT_EQ(Stats.Label.CacheProbes, 0u);
      break;
    case BackendKind::OnDemand:
      EXPECT_GT(Stats.Label.CacheProbes, 0u);
      break;
    case BackendKind::Hybrid: // Not in this loop.
      break;
    }
  }
}

TEST(CompileSession, CreateReportsTypedErrorForOfflineDynamicCosts) {
  auto T = cantFail(makeTarget("x86"));
  CompileSession::Options Opts;
  Opts.Backend = BackendKind::Offline;
  auto Session = CompileSession::create(T->G, &T->Dyn, Opts);
  ASSERT_FALSE(static_cast<bool>(Session));
  EXPECT_EQ(Session.kind(), ErrorKind::UnsupportedDynamicCosts);
}

TEST(CompileSession, L1HitRateSurfacesInSessionStats) {
  // The per-worker L1 is gone; the session's hit accounting is now the
  // shared cache's and the hybrid's offline index's. A warm batch over two
  // workers resolves every probe from the cache, the offline share
  // surfaces in offlineHitRate(), and each node is counted exactly once.
  auto T = cantFail(makeTarget("vm64"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  for (BackendKind K : {BackendKind::OnDemand, BackendKind::Hybrid}) {
    CompileSession::Options Opts;
    Opts.Backend = K;
    auto Session = cantFail(CompileSession::create(T->G, &T->Dyn, Opts));
    SessionStats Cold, Warm;
    Session->compileFunctions(Ptrs, 2, &Cold);
    Session->compileFunctions(Ptrs, 2, &Warm);
    EXPECT_GT(Warm.Label.NodesLabeled, 0u) << backendName(K);
    EXPECT_EQ(Warm.Label.CacheProbes,
              Warm.Label.NodesLabeled - Warm.Label.OfflineHits)
        << backendName(K);
    EXPECT_EQ(Warm.Label.CacheHits, Warm.Label.CacheProbes) << backendName(K);
    EXPECT_EQ(Warm.Label.StatesComputed, 0u) << backendName(K);
    EXPECT_EQ(Warm.Label.L1Probes + Warm.Label.DenseProbes, 0u)
        << backendName(K);
    if (K == BackendKind::Hybrid) {
      EXPECT_GT(Warm.offlineHitRate(), 0.0);
      EXPECT_LT(Warm.offlineHitRate(), 1.0); // Dyn-cost operators probe.
    } else {
      EXPECT_EQ(Warm.offlineHitRate(), 0.0);
    }
  }
}

TEST(CompileSession, HitRateAccessorsAreZeroNotNaNOnZeroProbes) {
  // A default-constructed stats object has zero nodes; the rate accessor
  // must read 0, not NaN (division by zero would poison every JSON report
  // and comparison downstream).
  SessionStats Empty;
  EXPECT_EQ(Empty.offlineHitRate(), 0.0);

  // A DP-backend batch resolves nothing from tables or caches: same
  // invariant on a stats object that went through a real compile.
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);
  CompileSession::Options Opts;
  Opts.Backend = BackendKind::DP;
  CompileSession Session(T->G, &T->Dyn, Opts);
  SessionStats Stats;
  Session.compileFunctions(Ptrs, 2, &Stats);
  EXPECT_GT(Stats.Label.NodesLabeled, 0u);
  EXPECT_EQ(Stats.Label.CacheProbes, 0u);
  EXPECT_EQ(Stats.Label.OfflineHits, 0u);
  EXPECT_EQ(Stats.offlineHitRate(), 0.0);
}

namespace {

/// A tiny grammar with emit templates, plus a corpus where the middle
/// function's root has no derivation from the start nonterminal.
const char *brokenBatchGrammar() {
  return R"(
    %start stmt
    stmt: Store(reg, reg) (1) "st %2, %1";
    reg:  Reg (0) "=r%c";
  )";
}

void buildStore(ir::IRFunction &F, const Grammar &G, int Dst, int Src) {
  SmallVector<ir::Node *, 2> C{F.makeLeaf(G.findOperator("Reg"), Dst),
                               F.makeLeaf(G.findOperator("Reg"), Src)};
  F.addRoot(F.makeNode(G.findOperator("Store"), C));
}

} // namespace

TEST(CompileSession, PerFunctionErrorDoesNotPoisonBatch) {
  Grammar G = cantFail(parseGrammar(brokenBatchGrammar()));
  std::vector<ir::IRFunction> Corpus(3);
  buildStore(Corpus[0], G, 1, 2);
  // A bare Reg root: reg is derivable but stmt is not.
  Corpus[1].addRoot(Corpus[1].makeLeaf(G.findOperator("Reg"), 7));
  buildStore(Corpus[2], G, 3, 4);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  CompileSession Session(G);
  for (unsigned Threads : {1u, 2u}) {
    SessionStats Stats;
    std::vector<CompileResult> Results =
        Session.compileFunctions(Ptrs, Threads, &Stats);
    ASSERT_EQ(Results.size(), 3u);
    EXPECT_TRUE(Results[0].ok());
    EXPECT_EQ(Results[0].Asm, "st r2, r1\n");
    ASSERT_FALSE(Results[1].ok());
    EXPECT_NE(Results[1].Diagnostic.find("no derivation"), std::string::npos);
    EXPECT_TRUE(Results[1].Asm.empty());
    // The failure is isolated: the function after it compiles normally,
    // including when the same worker scratch handled the failed one.
    EXPECT_TRUE(Results[2].ok());
    EXPECT_EQ(Results[2].Asm, "st r4, r3\n");
    EXPECT_EQ(Stats.Failed, 1u);
    EXPECT_EQ(Stats.Functions, 3u);
    // Failed functions contribute nothing to the batch totals.
    EXPECT_EQ(Stats.Instructions, 2u);
    EXPECT_EQ(CompileSession::concatAsm(Results), "st r2, r1\nst r4, r3\n");
  }
}

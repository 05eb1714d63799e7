//===- tests/integration/BackendDifferentialTest.cpp -------------------------===//
//
// Part of the odburg project.
//
// The paper's equivalence claim as a product guarantee: for every built-in
// target's static-cost grammar, compiling the shared synthetic corpus
// through a CompileSession on each labeling backend — DP, offline tables,
// on-demand automaton, and the hybrid (offline tables on the static
// partition fronting the automaton) — yields identical selected rules,
// identical total cover cost, and byte-identical assembly. The backends
// differ only in how fast they find the cover, never in which cover they
// find. A second suite runs the hybrid against DP on the *full* dyn-cost
// grammars — the configurations pure offline tables reject — across
// 1/2/4/8 worker threads. A third compares DP and the on-demand automaton
// on a large synthesized grammar, big enough that the automaton's cache
// holds thousands of states, at 1 and 4 workers.
//
//===----------------------------------------------------------------------===//

#include "pipeline/CompileSession.h"

#include "grammar/Synthesize.h"
#include "targets/Target.h"
#include "workload/Synthetic.h"

#include <gtest/gtest.h>

#include <vector>

using namespace odburg;
using namespace odburg::pipeline;
using namespace odburg::targets;
using namespace odburg::workload;

namespace {

/// A mixed-profile corpus over the target's fixed grammar, shared by all
/// three backends of one test instance.
std::vector<ir::IRFunction> makeCorpus(const Grammar &G) {
  std::vector<ir::IRFunction> Corpus;
  for (const char *Name : {"gzip-like", "gcc-like", "art-like"}) {
    const Profile *P = findProfile(Name);
    EXPECT_NE(P, nullptr);
    std::vector<ir::IRFunction> Fns =
        cantFail(generateBatch(*P, G, /*Count=*/3, /*TargetNodes=*/1200));
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

/// The full observable selection of a batch: per function, the fired
/// (node, source rule, lhs) triples in emission order.
std::vector<std::vector<std::tuple<std::uint32_t, RuleId, NonterminalId>>>
selections(const std::vector<CompileResult> &Results) {
  std::vector<std::vector<std::tuple<std::uint32_t, RuleId, NonterminalId>>>
      Rows;
  for (const CompileResult &R : Results) {
    Rows.emplace_back();
    for (const Match &M : R.Sel.Matches)
      Rows.back().emplace_back(M.Where->id(), M.Source, M.Lhs);
  }
  return Rows;
}

} // namespace

class BackendDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(BackendDifferential, AllBackendsEmitIdenticalCode) {
  auto T = cantFail(makeTarget(GetParam()));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->Fixed);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  std::string RefAsm;
  Cost RefCost = Cost::zero();
  std::vector<std::vector<std::tuple<std::uint32_t, RuleId, NonterminalId>>>
      RefSel;
  bool HaveRef = false;
  for (BackendKind Kind : {BackendKind::DP, BackendKind::Offline,
                           BackendKind::OnDemand, BackendKind::Hybrid}) {
    CompileSession::Options Opts;
    Opts.Backend = Kind;
    auto Session = CompileSession::create(T->Fixed, nullptr, Opts);
    ASSERT_TRUE(static_cast<bool>(Session))
        << backendName(Kind) << ": " << Session.message();
    // Two thread counts per backend: the equivalence must hold serial and
    // concurrent alike.
    for (unsigned Threads : {1u, 4u}) {
      std::vector<CompileResult> Results =
          (*Session)->compileFunctions(Ptrs, Threads);
      for (const CompileResult &R : Results)
        ASSERT_TRUE(R.ok()) << backendName(Kind) << ": " << R.Diagnostic;
      std::string Asm = CompileSession::concatAsm(Results);
      Cost Total = CompileSession::totalCost(Results);
      auto Sel = selections(Results);
      if (!HaveRef) {
        HaveRef = true;
        RefAsm = std::move(Asm);
        RefCost = Total;
        RefSel = std::move(Sel);
        EXPECT_FALSE(RefAsm.empty());
      } else {
        EXPECT_EQ(Asm, RefAsm)
            << backendName(Kind) << " x" << Threads << " diverged on "
            << GetParam();
        EXPECT_EQ(Total, RefCost) << backendName(Kind) << " x" << Threads;
        EXPECT_EQ(Sel, RefSel) << backendName(Kind) << " x" << Threads;
      }
    }
  }
}

// The hybrid's reason to exist: dynamic-cost grammars, which pure offline
// tables reject outright. On every target's *full* grammar (dyn hooks
// active) the hybrid must reproduce DP's and the on-demand automaton's
// selection bit for bit at every thread count — while actually serving a
// nonzero share of nodes from its offline partition tables.
TEST_P(BackendDifferential, HybridMatchesDPOnDynamicCostGrammars) {
  auto T = cantFail(makeTarget(GetParam()));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  std::string RefAsm;
  Cost RefCost = Cost::zero();
  std::vector<std::vector<std::tuple<std::uint32_t, RuleId, NonterminalId>>>
      RefSel;
  bool HaveRef = false;
  for (BackendKind Kind :
       {BackendKind::DP, BackendKind::OnDemand, BackendKind::Hybrid}) {
    CompileSession::Options Opts;
    Opts.Backend = Kind;
    auto Session = CompileSession::create(T->G, &T->Dyn, Opts);
    ASSERT_TRUE(static_cast<bool>(Session))
        << backendName(Kind) << ": " << Session.message();
    std::uint64_t OfflineHits = 0;
    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      SessionStats Stats;
      std::vector<CompileResult> Results =
          (*Session)->compileFunctions(Ptrs, Threads, &Stats);
      OfflineHits += Stats.Label.OfflineHits;
      for (const CompileResult &R : Results)
        ASSERT_TRUE(R.ok()) << backendName(Kind) << ": " << R.Diagnostic;
      std::string Asm = CompileSession::concatAsm(Results);
      Cost Total = CompileSession::totalCost(Results);
      auto Sel = selections(Results);
      if (!HaveRef) {
        HaveRef = true;
        RefAsm = std::move(Asm);
        RefCost = Total;
        RefSel = std::move(Sel);
        EXPECT_FALSE(RefAsm.empty());
      } else {
        EXPECT_EQ(Asm, RefAsm)
            << backendName(Kind) << " x" << Threads << " diverged on "
            << GetParam() << " (full grammar)";
        EXPECT_EQ(Total, RefCost) << backendName(Kind) << " x" << Threads;
        EXPECT_EQ(Sel, RefSel) << backendName(Kind) << " x" << Threads;
      }
    }
    // Only the hybrid touches the offline dispatch path, and on a real
    // machine grammar the static partition is most of the operator set —
    // the accelerator must actually fire, not silently fall through.
    if (Kind == BackendKind::Hybrid)
      EXPECT_GT(OfflineHits, 0u) << GetParam();
    else
      EXPECT_EQ(OfflineHits, 0u) << backendName(Kind);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTargets, BackendDifferential,
                         ::testing::ValuesIn(targetNames()));

// A synthesized grammar with 16 rules per operator over 6 nonterminals
// (the shape of the cold_synth benchmark workload): the automaton builds
// thousands of states, so concurrent workers race state construction and
// cache inserts throughout the cold pass. Synthesized grammars carry no
// emit templates, so the fired-rule sequence and the total cost are the
// observable output; both must match DP's at 1 and 4 workers, cold and
// warm.
TEST(BackendDifferentialSynth, LargeGrammarIdenticalAtFourWorkers) {
  SynthesisParams P;
  P.NumLeafOps = 6;
  P.NumUnaryOps = 8;
  P.NumBinaryOps = 8;
  P.NumNts = 6;
  P.RulesPerOp = 16;
  P.Seed = 5;
  Grammar G = cantFail(synthesizeGrammar(P));
  RNG Rand(0x5EED);
  std::vector<ir::IRFunction> Corpus(24);
  for (ir::IRFunction &F : Corpus)
    for (int Root = 0; Root < 4; ++Root)
      F.addRoot(synthesizeTree(G, F, Rand, /*Budget=*/500));
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  CompileSession::Options DPOpts;
  DPOpts.Backend = BackendKind::DP;
  CompileSession DP(G, nullptr, DPOpts);
  std::vector<CompileResult> Ref = DP.compileFunctions(Ptrs, 1);
  for (const CompileResult &R : Ref)
    ASSERT_TRUE(R.ok()) << R.Diagnostic;
  auto RefSel = selections(Ref);
  Cost RefCost = CompileSession::totalCost(Ref);

  for (unsigned Threads : {1u, 4u}) {
    CompileSession OnDemand(G);
    for (const char *Pass : {"cold", "warm"}) {
      SessionStats Stats;
      std::vector<CompileResult> Results =
          OnDemand.compileFunctions(Ptrs, Threads, &Stats);
      EXPECT_EQ(Stats.Failed, 0u);
      EXPECT_EQ(selections(Results), RefSel) << Pass << " x" << Threads;
      EXPECT_EQ(CompileSession::totalCost(Results), RefCost)
          << Pass << " x" << Threads;
    }
    EXPECT_GT(OnDemand.automaton().numStates(), 1000u);
  }
}

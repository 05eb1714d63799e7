//===- tests/integration/GrammarScaleTest.cpp --------------------------------===//
//
// Part of the odburg project.
//
// Grammar-scaling stress: the hand-written targets top out around 25
// operators, so the sharded state table and transition cache never see
// real operator diversity from them. This drives the full pipeline over a
// synthesized grammar with ~10x the operators of Vm64 (250 operators, 6
// nonterminals, 6 rule alternatives per interior operator) — enough
// distinct (op, child-state) transition keys to spread load across all
// cache shards — and checks the usual invariants: every function
// compiles, and the selection is bit-identical for any thread count, cold
// and warm.
//
//===----------------------------------------------------------------------===//

#include "grammar/Synthesize.h"
#include "pipeline/CompileService.h"
#include "support/RNG.h"
#include "workload/Synthetic.h"

#include <gtest/gtest.h>

#include <vector>

using namespace odburg;
using namespace odburg::pipeline;

namespace {

SynthesisParams scaleParams() {
  SynthesisParams P;
  P.NumLeafOps = 50;
  P.NumUnaryOps = 80;
  P.NumBinaryOps = 120; // 250 operators total, ~10x the vm64 target.
  P.NumNts = 6;
  P.RulesPerOp = 6;
  P.MaxCost = 3;
  P.Seed = 97;
  return P;
}

std::vector<ir::IRFunction> makeCorpus(const Grammar &G) {
  RNG Rand(0xCAFE);
  std::vector<ir::IRFunction> Corpus(16);
  for (ir::IRFunction &F : Corpus)
    for (int Root = 0; Root < 4; ++Root)
      F.addRoot(workload::synthesizeTree(G, F, Rand, /*Budget=*/600));
  return Corpus;
}

/// Selections as comparable rows (synthesized grammars have no emit
/// templates, so the assembly is empty and the fired-rule sequence is the
/// strongest observable output).
std::vector<std::vector<std::pair<std::uint32_t, RuleId>>>
selectionRows(const std::vector<CompileResult> &Results) {
  std::vector<std::vector<std::pair<std::uint32_t, RuleId>>> Rows;
  for (const CompileResult &R : Results) {
    Rows.emplace_back();
    for (const Match &M : R.Sel.Matches)
      Rows.back().emplace_back(M.Where->id(), M.Source);
  }
  return Rows;
}

std::unique_ptr<CompileService> makeService(const Grammar &G,
                                            unsigned Workers) {
  CompileService::Options Opts;
  Opts.Workers = Workers;
  return cantFail(CompileService::create(G, nullptr, std::move(Opts)));
}

const OnDemandAutomaton &automatonOf(const CompileService &Svc) {
  return static_cast<const OnDemandBackend &>(Svc.backend()).automaton();
}

} // namespace

TEST(GrammarScale, TenXOperatorGrammarCompilesThreadInvariant) {
  Grammar G = cantFail(synthesizeGrammar(scaleParams()));
  ASSERT_EQ(G.numOperators(), 250u);
  std::vector<ir::IRFunction> Corpus = makeCorpus(G);
  std::vector<ir::IRFunction *> Ptrs;
  for (ir::IRFunction &F : Corpus)
    Ptrs.push_back(&F);

  // Serial reference.
  std::unique_ptr<CompileService> Ref = makeService(G, 1);
  std::vector<CompileResult> RefResults = cantFail(compileAll(*Ref, Ptrs));
  Cost RefCost = totalCost(RefResults);
  for (const CompileResult &R : RefResults)
    ASSERT_TRUE(R.ok()) << R.Diagnostic;
  auto RefRows = selectionRows(RefResults);

  // The synthesized operator diversity must actually exercise the sharded
  // tables: hundreds of states and transitions, not the handful the
  // hand-written targets produce.
  EXPECT_GT(automatonOf(*Ref).numStates(), 250u);
  EXPECT_GT(automatonOf(*Ref).numTransitions(), 1000u);

  for (unsigned Threads : {2u, 4u, 8u}) {
    std::unique_ptr<CompileService> Svc = makeService(G, Threads);
    std::vector<CompileResult> Results = cantFail(compileAll(*Svc, Ptrs));
    for (const CompileResult &R : Results)
      EXPECT_TRUE(R.ok()) << R.Diagnostic;
    EXPECT_EQ(selectionRows(Results), RefRows);
    EXPECT_EQ(totalCost(Results), RefCost);
    // Content-addressed states: the table converges to the same automaton
    // regardless of interleaving.
    EXPECT_EQ(automatonOf(*Svc).numStates(), automatonOf(*Ref).numStates());

    // Warm pass: no new states, all hits, same output.
    Results = cantFail(compileAll(*Svc, Ptrs));
    SelectionStats Warm;
    for (const CompileResult &R : Results)
      Warm += R.Stats;
    EXPECT_EQ(Warm.StatesComputed, 0u);
    EXPECT_EQ(Warm.CacheHits, Warm.CacheProbes);
    EXPECT_EQ(selectionRows(Results), RefRows);
  }
}

//===- core/OnDemandAutomaton.cpp - The paper's contribution --------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "core/OnDemandAutomaton.h"

#include "support/Compiler.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <vector>

using namespace odburg;

OnDemandAutomaton::OnDemandAutomaton(const Grammar &G, const DynCostTable *Dyn)
    : OnDemandAutomaton(G, Dyn, Options()) {}

OnDemandAutomaton::OnDemandAutomaton(const Grammar &G, const DynCostTable *Dyn,
                                     Options Opts)
    : G(G), Dyn(Dyn), Computer(G), States(G.numNonterminals()), Opts(Opts) {
  assert(G.isFinalized() && "grammar must be finalized");
  assert((!G.hasDynCosts() || Dyn) &&
         "grammar has dynamic costs but no hook table was supplied");
  // Keep the safety bound reachable: leave one block of headroom below the
  // table's hard capacity so concurrent interners hit the MaxStates
  // diagnostic, never the table's capacity abort.
  this->Opts.MaxStates =
      std::min(this->Opts.MaxStates, StateTable::maxCapacity() - 4096);
}

void OnDemandAutomaton::seedStatesFrom(const StateTable &Src) {
  assert(States.size() == 0 && "seeding requires an empty state table");
  assert(Src.numNonterminals() == G.numNonterminals() &&
         "seed states must have this grammar's nonterminal count");
  unsigned K = Src.size();
  unsigned NumNts = G.numNonterminals();
  std::vector<Cost> Costs(NumNts);
  std::vector<RuleId> Rules(NumNts);
  for (StateId Id = 0; Id < K; ++Id) {
    const State *S = Src.byId(Id);
    for (NonterminalId Nt = 0; Nt < NumNts; ++Nt) {
      Costs[Nt] = S->costOf(Nt);
      Rules[Nt] = S->ruleOf(Nt);
    }
    const State *NS = States.intern(S->Op, Costs.data(), Rules.data());
    // A canonical source table has no duplicates, so interning in id
    // order must reproduce the ids exactly — the offline dispatch would
    // silently mislabel otherwise, so check for real, not just in
    // asserts-on builds.
    if (NS->Id != Id)
      reportFatalError("seeding the on-demand automaton did not reproduce "
                       "the source state ids (duplicate states in source)");
  }
}

const State *OnDemandAutomaton::computeState(OperatorId Op,
                                             const State *const *ChildStates,
                                             const Cost *DynOutcomes,
                                             SelectionStats &Stats) {
  ++Stats.StatesComputed;
  SmallVector<Cost, 32> Costs;
  SmallVector<RuleId, 32> Rules;
  Computer.compute(
      Op,
      [&](unsigned Pos, NonterminalId Nt) {
        return ChildStates[Pos]->costOf(Nt);
      },
      [&](unsigned J) { return DynOutcomes[J]; }, Costs, Rules, &Stats);
  const State *S = States.intern(Op, Costs.data(), Rules.data());
  if (States.size() > Opts.MaxStates)
    reportFatalError("on-demand automaton exceeded its state limit; the "
                     "grammar's relative costs likely diverge (missing chain "
                     "rules)");
  return S;
}

ODBURG_ALWAYS_INLINE StateId OnDemandAutomaton::resolve(const ir::Node &N,
                                                        SelectionStats &Stats) {
  // Hybrid dispatch: a static-partition node over offline-known child
  // states is one table index, no key, no probe.
  if (Partition) {
    StateId Hit = offlineResolve(*Partition, N);
    if (ODBURG_LIKELY(Hit != InvalidState)) {
      ++Stats.OfflineHits;
      return Hit;
    }
  }

  OperatorId Op = N.op();
  unsigned NumChildren = N.numChildren();
  const auto &DynRules = G.dynRulesFor(Op);
  unsigned NumDyn = DynRules.size();

  // Build the transition key: header, child states, dynamic-cost outcomes.
  SmallVector<std::uint32_t, 20> Key;
  Key.push_back(TransitionCache::packHeader(Op, NumChildren, NumDyn));
  for (unsigned I = 0; I < NumChildren; ++I)
    Key.push_back(N.child(I)->label());
  SmallVector<Cost, 16> DynOutcomes;
  for (unsigned J = 0; J < NumDyn; ++J) {
    ++Stats.DynCostEvals;
    DynOutcomes.push_back(Dyn->evaluate(G.normRule(DynRules[J]).DynHook, N));
    Key.push_back(DynOutcomes.back().raw());
  }

  // One lock-free seqlock probe of the shared hashed cache.
  std::uint64_t H = 0;
  if (ODBURG_LIKELY(Opts.UseTransitionCache)) {
    ++Stats.CacheProbes;
    H = TransitionCache::hashKey(Key.data(), Key.size());
    StateId Hit = Cache.lookupHashed(Key.data(), Key.size(), H);
    if (ODBURG_LIKELY(Hit != InvalidState)) {
      ++Stats.CacheHits;
      return Hit;
    }
  }

  // Slow path (or the cache-ablated configuration): compute, hash-cons,
  // memoize. Child State pointers are fetched only here — a warm probe
  // resolves from the key's state ids alone.
  SmallVector<const State *, 4> ChildStates;
  for (unsigned I = 0; I < NumChildren; ++I)
    ChildStates.push_back(States.byId(Key[1 + I]));
  const State *S =
      computeState(Op, ChildStates.data(), DynOutcomes.data(), Stats);
  if (Opts.UseTransitionCache)
    Cache.insertHashed(Key.data(), Key.size(), H, S->Id);
  return S->Id;
}

StateId OnDemandAutomaton::labelNode(ir::Node &N, SelectionStats &Stats) {
  ++Stats.NodesLabeled;
  StateId Id = resolve(N, Stats);
  N.setLabel(Id);
  return Id;
}

void OnDemandAutomaton::labelFunction(ir::IRFunction &F,
                                      SelectionStats *Stats) {
  SelectionStats Local;
  SelectionStats &S = Stats ? *Stats : Local;
  for (ir::Node *N : F.nodes())
    labelNode(*N, S);
}

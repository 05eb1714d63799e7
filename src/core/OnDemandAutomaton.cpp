//===- core/OnDemandAutomaton.cpp - The paper's contribution --------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "core/OnDemandAutomaton.h"

#include "support/Compiler.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <atomic>
#include <thread>
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

namespace {

/// Resolves one node through the offline-partition tables: a direct
/// leaf-state read or one dense table index over representer maps.
/// Returns InvalidState when the node is outside the partition's
/// coverage — operator not in the partition, or a child labeled by a
/// state the offline enumeration never saw (id >= NumStates, i.e. a
/// dyn-cost subtree's state) — in which case the caller falls through
/// to the normal on-demand probe, which resolves to the exact same
/// state the tables would have (delta normalization makes offline and
/// on-demand states bit-equal; the seeded id space makes ids agree).
template <typename GetChild>
inline StateId offlineResolve(const OfflinePartitionView &PV, OperatorId Op,
                              unsigned NumChildren, GetChild &&Child) {
  const OfflinePartitionView::OpEntry &E = PV.Ops[Op];
  if (!E.InPartition)
    return InvalidState;
  if (NumChildren == 0)
    return E.Leaf;
  std::size_t Index = 0;
  for (unsigned P = 0; P < NumChildren; ++P) {
    StateId C = Child(P);
    if (C >= PV.NumStates)
      return InvalidState;
    Index = Index * E.Dims[P] + E.RepMaps[P][C];
  }
  return E.Table[Index];
}

} // namespace

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

template <typename ChildLabel>
ODBURG_ALWAYS_INLINE StateId
OnDemandAutomaton::resolve(const ir::Node &N, OperatorId Op,
                           unsigned NumChildren, ChildLabel &&Child,
                           SelectionStats &Stats) {
  // Hybrid dispatch: a static-partition node over offline-known child
  // states is one table index, no key, no probe.
  if (Partition) {
    StateId Hit = offlineResolve(*Partition, Op, NumChildren, Child);
    if (ODBURG_LIKELY(Hit != InvalidState)) {
      ++Stats.OfflineHits;
      return Hit;
    }
  }

  const auto &DynRules = G.dynRulesFor(Op);
  unsigned NumDyn = DynRules.size();

  // Build the transition key: header, child states, dynamic-cost outcomes.
  SmallVector<std::uint32_t, 20> Key;
  Key.push_back(TransitionCache::packHeader(Op, NumChildren, NumDyn));
  for (unsigned I = 0; I < NumChildren; ++I)
    Key.push_back(Child(I));
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
  StateId Id = resolve(N, N.op(), N.numChildren(),
                       [&](unsigned I) { return N.child(I)->label(); },
                       Stats);
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

void LabelBatch::build(const ir::IRFunction &F) {
  A.reset();
  N = F.size();
  const std::vector<ir::Node *> &Fn = F.nodes();

  OperatorId *Op = A.allocateArray<OperatorId>(N);
  std::uint16_t *NC = A.allocateArray<std::uint16_t>(N);
  ir::Node **NP = A.allocateArray<ir::Node *>(N);
  std::uint32_t *FC = A.allocateArray<std::uint32_t>(N + 1);
  StateId *Lb = A.allocateArray<StateId>(N);

  std::size_t TotalChildren = 0;
  for (unsigned I = 0; I < N; ++I)
    TotalChildren += Fn[I]->numChildren();
  std::uint32_t *CI = A.allocateArray<std::uint32_t>(TotalChildren);

  std::uint32_t At = 0;
  for (unsigned I = 0; I < N; ++I) {
    const ir::Node *Node = Fn[I];
    assert(Node->id() == I && "node ids must equal topological positions");
    Op[I] = Node->op();
    NC[I] = static_cast<std::uint16_t>(Node->numChildren());
    NP[I] = Fn[I];
    FC[I] = At;
    for (ir::Node *C : Node->children())
      CI[At++] = C->id();
  }
  FC[N] = At;

  Ops = Op;
  NumCh = NC;
  Nodes = NP;
  FirstChild = FC;
  ChildIds = CI;
  Labels = Lb;
}

void OnDemandAutomaton::labelFunctionBatched(ir::IRFunction &F,
                                             LabelBatch &B,
                                             SelectionStats *Stats) {
  B.build(F);
  SelectionStats Local;
  SelectionStats &S = Stats ? *Stats : Local;
  S.NodesLabeled += B.N;
  for (unsigned I = 0; I < B.N; ++I) {
    // Child states are contiguous indexed loads — the SoA win: no node
    // pointer is chased on the warm path.
    const std::uint32_t *Ch = B.ChildIds + B.FirstChild[I];
    StateId Id = resolve(*B.Nodes[I], B.Ops[I], B.NumCh[I],
                         [&](unsigned P) { return B.Labels[Ch[P]]; }, S);
    B.Labels[I] = Id;
    B.Nodes[I]->setLabel(Id);
  }
}

void OnDemandAutomaton::labelFunctions(std::span<ir::IRFunction *const> Fns,
                                       unsigned Threads,
                                       SelectionStats *Stats) {
  if (Threads == 0)
    Threads = std::max(1u, std::thread::hardware_concurrency());
  Threads = static_cast<unsigned>(
      std::min<std::size_t>(Threads, Fns.size()));
  if (Threads <= 1) {
    for (ir::IRFunction *F : Fns)
      labelFunction(*F, Stats);
    return;
  }

  // Per-worker counters, cache-line padded so hot increments do not
  // false-share; merged once at the end.
  struct alignas(64) PaddedStats {
    SelectionStats S;
  };
  std::vector<PaddedStats> PerWorker(Threads);
  std::atomic<std::size_t> Next{0};
  auto Work = [&](unsigned W) {
    std::size_t I;
    while ((I = Next.fetch_add(1, std::memory_order_relaxed)) < Fns.size())
      labelFunction(*Fns[I], &PerWorker[W].S);
  };

  std::vector<std::thread> Workers;
  Workers.reserve(Threads - 1);
  for (unsigned W = 1; W < Threads; ++W)
    Workers.emplace_back(Work, W);
  Work(0);
  for (std::thread &T : Workers)
    T.join();

  if (Stats)
    for (const PaddedStats &P : PerWorker)
      *Stats += P.S;
}

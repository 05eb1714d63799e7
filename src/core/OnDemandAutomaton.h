//===- core/OnDemandAutomaton.h - The paper's contribution ----------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// On-demand tree-parsing automata (Ertl, Casey, Gregg; PLDI 2006). The
/// automaton is built lazily at instruction-selection time:
///
///   - Fast path: per node, evaluate the operator's dynamic-cost hooks,
///     pack (operator, child states, outcomes) into a key, and resolve it
///     with one lock-free seqlock probe of the hashed transition cache —
///     instead of a walk over all applicable rules.
///   - Slow path (cache miss): compute the state by dynamic programming
///     over the child states (StateComputer), hash-cons it in the state
///     table, memoize the transition, and continue.
///
/// The automaton persists across functions (a JIT keeps it for the process
/// lifetime), so misses are amortized: after warm-up nearly every node is
/// a hit. Dynamic costs are flexible exactly because their outcomes are
/// part of the transition key — the same (op, child-states) combination
/// with different hook outcomes maps to different states, which offline
/// automata cannot express at all.
///
//===----------------------------------------------------------------------===//

#ifndef ODBURG_CORE_ONDEMANDAUTOMATON_H
#define ODBURG_CORE_ONDEMANDAUTOMATON_H

#include "core/OfflinePartition.h"
#include "core/State.h"
#include "core/StateComputer.h"
#include "core/TransitionCache.h"
#include "grammar/Grammar.h"
#include "ir/Node.h"
#include "select/DynCost.h"
#include "select/Labeling.h"
#include "support/Arena.h"
#include "support/Statistic.h"

#include <span>
#include <utility>

namespace odburg {

/// Arena-backed structure-of-arrays mirror of one function's nodes, the
/// input of the batched labeling path. The pointer-linked ir::Node graph
/// is cache-hostile for labeling: reading a child's state costs
/// `N.child(I)->label()` — two dependent pointer chases into nodes
/// scattered across the function arena. Node ids are dense and equal to
/// the node's position in topological order, so the traversal state can
/// instead live in flat parallel arrays indexed by id: operators,
/// child-id adjacency (CSR-style), and the per-node state labels the
/// children of later nodes will read. The batch loop then streams
/// contiguous memory, and a child's state is one indexed load from an
/// array that is hot by construction (children precede parents).
///
/// The arrays live in a private arena reset per function (the newest slab
/// is kept), so a long-lived scratch reaches zero allocation traffic in
/// the steady state. Owned by select/LabelerScratch, one per worker.
class LabelBatch {
public:
  LabelBatch() = default;
  LabelBatch(const LabelBatch &) = delete;
  LabelBatch &operator=(const LabelBatch &) = delete;

  /// (Re)fills the arrays from \p F's topological node order. Invalidates
  /// the previous contents.
  void build(const ir::IRFunction &F);

  unsigned size() const { return N; }

private:
  friend class OnDemandAutomaton;

  Arena A;
  unsigned N = 0;
  /// Per-node operator, arity, and node pointer (payload access for
  /// dynamic-cost hooks + label write-back), indexed by node id.
  const OperatorId *Ops = nullptr;
  const std::uint16_t *NumCh = nullptr;
  ir::Node *const *Nodes = nullptr;
  /// CSR child adjacency: node I's children are node ids
  /// ChildIds[FirstChild[I] .. FirstChild[I+1]).
  const std::uint32_t *FirstChild = nullptr;
  const std::uint32_t *ChildIds = nullptr;
  /// Output: node I's resolved StateId — the array later nodes read their
  /// child states from.
  StateId *Labels = nullptr;
};

/// The on-demand automaton. Also a Labeling: after labelFunction(), nodes
/// carry their StateId in the label slot and the reducer reads rules
/// through the state's rule vector.
class OnDemandAutomaton final : public Labeling {
public:
  /// Tunables, mostly for the ablation experiments.
  struct Options {
    /// Memoize transitions (the fast path). Turning this off recomputes
    /// the state at every node — it isolates how much of the speedup is
    /// the cache versus state hash-consing.
    bool UseTransitionCache = true;
    /// Safety bound on automaton growth for degenerate grammars whose
    /// relative costs do not converge. Clamped below the state table's
    /// hard capacity (StateTable::maxCapacity()) so the bound always
    /// fires with its divergence diagnostic rather than the table's
    /// internal capacity abort.
    unsigned MaxStates = 1u << 20;
  };

  /// \p Dyn may be null when the grammar has no dynamic-cost rules.
  /// (Two overloads rather than a defaulted Options parameter: a nested
  /// class with member initializers cannot be a default argument inside
  /// its enclosing class.)
  explicit OnDemandAutomaton(const Grammar &G,
                             const DynCostTable *Dyn = nullptr);
  OnDemandAutomaton(const Grammar &G, const DynCostTable *Dyn, Options Opts);

  /// Labels all nodes of \p F (topological node order). The automaton
  /// keeps all states/transitions created, so subsequent calls get faster.
  /// Safe to call concurrently from several threads as long as each call
  /// works on a distinct function: the state table and transition cache
  /// are sharded and thread-safe, and node labels are per-function.
  void labelFunction(ir::IRFunction &F, SelectionStats *Stats = nullptr);

  /// Labels a corpus of functions concurrently against this one shared
  /// automaton with \p Threads worker threads (0 = hardware concurrency).
  /// Functions are handed out through an atomic index, so uneven function
  /// sizes balance across workers. Labels/rules/costs are identical to a
  /// serial pass; under concurrency the cold-pass *work counters* (probes,
  /// states computed) can differ slightly between runs because racing
  /// threads may both compute a state the cache dedups.
  void labelFunctions(std::span<ir::IRFunction *const> Fns,
                      unsigned Threads = 0, SelectionStats *Stats = nullptr);

  /// Labels one node (children must be labeled). Returns the state id and
  /// stores it in the node's label slot.
  StateId labelNode(ir::Node &N, SelectionStats &Stats);

  /// Batched labeling: rebuilds \p Batch from \p F and labels every node
  /// through the SoA path — contiguous child-state reads, with child
  /// State* fetched only on the slow path. Labels, rules, costs, and work
  /// counters are identical to the node-at-a-time path.
  void labelFunctionBatched(ir::IRFunction &F, LabelBatch &Batch,
                            SelectionStats *Stats);

  /// Bridges externally enumerated states into this automaton: interns
  /// every state of \p Src in id order into the automaton's own table.
  /// Must run before any labeling, on an automaton whose table is still
  /// empty, so the interned ids come out equal to the source ids — the
  /// identification the hybrid backend's offline dispatch rests on (see
  /// core/OfflinePartition.h). Asserted, not hoped for.
  void seedStatesFrom(const StateTable &Src);

  /// \name Warm-snapshot bridge (registry/WarmSnapshot.h)
  /// @{

  /// Interns one snapshot state, which must come out with id \p Expected.
  /// States are replayed in id order, so on an empty automaton this is
  /// seedStatesFrom() one state at a time; on a table-seeded (hybrid)
  /// automaton the snapshot's prefix must reproduce the existing states.
  /// Returns false when the id does not come out as expected — the
  /// snapshot is stale or corrupt (duplicate, reordered, or mismatched
  /// states) and the caller must discard it; the automaton itself remains
  /// valid (intern only ever adds canonical states).
  bool importWarmState(OperatorId Op, const Cost *Costs, const RuleId *Rules,
                       StateId Expected) {
    return States.intern(Op, Costs, Rules)->Id == Expected;
  }

  /// Replays one memoized transition into the cache. The caller has
  /// validated the key shape and that value/child state ids are below
  /// numStates(); a duplicate insert dedups harmlessly.
  void importWarmTransition(const std::uint32_t *Key, unsigned Words,
                            StateId Value) {
    Cache.insert(Key, Words, Value);
  }

  /// Enumerates every memoized transition (see TransitionCache::forEach);
  /// the warm-snapshot dump side. Quiescent use only.
  template <typename Fn> void forEachTransition(Fn &&Visit) const {
    Cache.forEach(std::forward<Fn>(Visit));
  }

  /// @}

  /// Attaches an offline-partition view: nodes whose operator is in the
  /// partition and whose child labels are all < PV->NumStates resolve by
  /// direct table indexing (counted as SelectionStats::OfflineHits),
  /// bypassing key construction and the cache probe. Requires
  /// seedStatesFrom() to have interned exactly the view's states first.
  /// \p PV is non-owning and must outlive the automaton; null detaches.
  void attachOfflinePartition(const OfflinePartitionView *PV) {
    Partition = PV;
  }
  const OfflinePartitionView *offlinePartition() const { return Partition; }

  /// \name Labeling interface
  /// @{
  RuleId ruleFor(const ir::Node &N, NonterminalId Nt) const override {
    return States.byId(N.label())->ruleOf(Nt);
  }
  Cost costFor(const ir::Node &N, NonterminalId Nt) const override {
    return States.byId(N.label())->costOf(Nt);
  }
  /// @}

  /// \name Introspection (experiment support)
  /// @{
  unsigned numStates() const { return States.size(); }
  std::size_t numTransitions() const { return Cache.size(); }
  std::size_t memoryBytes() const {
    return States.memoryBytes() + Cache.memoryBytes();
  }
  const StateTable &stateTable() const { return States; }
  /// @}

private:
  const State *computeState(OperatorId Op, const State *const *ChildStates,
                            const Cost *DynOutcomes, SelectionStats &Stats);

  /// The per-node step both labeling loops share: offline-partition
  /// index (hybrid only), then key build, one cache probe, and
  /// StateComputer on a miss. \p Child(I) yields child I's state id.
  template <typename ChildLabel>
  StateId resolve(const ir::Node &N, OperatorId Op, unsigned NumChildren,
                  ChildLabel &&Child, SelectionStats &Stats);

  const Grammar &G;
  const DynCostTable *Dyn;
  StateComputer Computer;
  StateTable States;
  TransitionCache Cache;
  /// The hybrid backend's offline-partition bridge; null otherwise.
  const OfflinePartitionView *Partition = nullptr;
  Options Opts;
};

} // namespace odburg

#endif // ODBURG_CORE_ONDEMANDAUTOMATON_H

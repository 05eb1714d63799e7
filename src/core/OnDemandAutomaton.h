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
#include "support/Statistic.h"

#include <utility>

namespace odburg {

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

  /// Labels one node (children must be labeled). Returns the state id and
  /// stores it in the node's label slot.
  StateId labelNode(ir::Node &N, SelectionStats &Stats);

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

  /// The per-node step: offline-partition index (hybrid only), then key
  /// build, one cache probe, and StateComputer on a miss. \p N's
  /// children must be labeled.
  StateId resolve(const ir::Node &N, SelectionStats &Stats);

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

//===- offline/OfflineTables.h - burg-style exhaustive automata -----------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline (ahead-of-time) tree-parsing automaton generation in the style
/// of burg (Fraser/Henry/Proebsting; Chase's table compression): enumerate
/// *all* reachable states before any input is seen and compile them into
/// dense transition tables indexed by *representer* indices.
///
/// For each (operator, operand position), a state is projected onto the
/// nonterminals that can actually appear at that position; states with
/// equal (re-normalized) projections share a representer index, which is
/// what keeps the dense tables small. Labeling is then pure array
/// indexing:
///
///   state = Table[op][RepMap[op][0][s0]][RepMap[op][1][s1]]
///
/// That index lives in one place, core/OfflinePartition.h's
/// offlineResolve over the view makePartitionView() builds; the offline
/// and hybrid backends (select/LabelerBackend.h) both label through it.
/// Both also share one table format: a full generation is the subset
/// generation over every operator, so a dyn-free grammar's tables serve
/// either backend.
///
/// Dynamic costs are fundamentally unsupported here — the tables are fixed
/// before the subject tree exists. This is the inflexibility that the
/// on-demand automaton (core/) removes; benches quantify the other side of
/// the trade (generation time and table size vs. lazy construction).
///
//===----------------------------------------------------------------------===//

#ifndef ODBURG_OFFLINE_OFFLINETABLES_H
#define ODBURG_OFFLINE_OFFLINETABLES_H

#include "core/OfflinePartition.h"
#include "core/State.h"
#include "core/StateComputer.h"
#include "grammar/Grammar.h"
#include "support/Error.h"
#include "support/Statistic.h"

#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

namespace odburg {

namespace detail {
class TableBuilder;
} // namespace detail

/// The generated automaton: all states plus dense transition tables.
class CompiledTables {
public:
  /// Statistics about the generated automaton.
  struct Stats {
    unsigned NumStates = 0;
    std::size_t NumTransitions = 0; ///< Dense table entries.
    std::size_t TableBytes = 0;     ///< Tables + representer maps.
    double GenerationMs = 0;        ///< Wall time of generation.
    std::uint64_t StatesComputed = 0; ///< Including duplicates re-derived.
    bool Loaded = false;              ///< Set by load(): not generated.
  };

  const State *stateById(StateId Id) const { return States->byId(Id); }

  const Stats &stats() const { return GenStats; }
  const StateTable &stateTable() const { return *States; }

  /// \name Partition membership
  /// Tables generated over an operator subset (OfflineTableGen::
  /// generateSubset, the hybrid backend's static partition) cover only
  /// their member operators; full generations report every operator as a
  /// member.
  /// @{
  bool inPartition(OperatorId Op) const { return InPartition[Op] != 0; }
  /// One byte per operator, 1 = member.
  const std::vector<std::uint8_t> &partitionMembership() const {
    return InPartition;
  }
  /// True when at least one operator is excluded.
  bool isPartitioned() const;
  /// Hash of the membership vector alone — the key under which a
  /// partitioned dump is valid. dump() records it; load() re-validates
  /// it. Whether the membership suits a backend is
  /// LabelerBackend::createWithTables' check.
  std::uint64_t partitionFingerprint() const;
  /// @}

  /// Flattens the tables into the non-owning per-operator view that
  /// offlineResolve indexes (core/OfflinePartition.h). The view borrows
  /// this object's storage: keep the CompiledTables alive, and do not
  /// move it, while the view is in use.
  OfflinePartitionView makePartitionView() const;

  /// Content fingerprint over everything labeling can observe: every
  /// state's (operator, costs, rules) in id order, the leaf-state map, and
  /// each operator's dims, representer maps and dense table. Two
  /// generations are bit-identical iff their fingerprints match — the
  /// identity check behind the determinism tests and load().
  std::uint64_t fingerprint() const;

  /// Serializes the tables — partition membership, states, leaf-state
  /// map, representer maps, dense tables — to \p OS in a versioned
  /// little-endian binary format, keyed by fingerprint() and
  /// partitionFingerprint(): the header records both so load() can prove
  /// it reconstructed the exact same automaton over the exact same
  /// operator subset. Generation cost is thereby paid once per grammar
  /// across processes (registry::createSpooledBackend, behind the
  /// registry spool and odburg-serve --tables). Fails on stream write
  /// errors.
  Error dump(std::ostream &OS) const;

  /// Deserializes tables dumped by dump(). Validates the header, the
  /// grammar shape (\p G must have the same operator/nonterminal counts
  /// and member-operator arities as the dumping grammar, and no dynamic
  /// costs on any member operator — a full dump therefore still rejects
  /// any dynamic-cost grammar), the partition fingerprint against the
  /// stored membership, and — after reconstructing — that the recomputed
  /// fingerprint matches the stored one, so a corrupted or mismatched
  /// file can never label. All failures are typed
  /// ErrorKind::MalformedInput except dynamic costs
  /// (ErrorKind::UnsupportedDynamicCosts). The loaded stats report
  /// Loaded, and GenerationMs is the load time. Whether the loaded
  /// partition is the one the caller wants is the caller's check
  /// (LabelerBackend::createWithTables makes it).
  static Expected<CompiledTables> load(std::istream &IS, const Grammar &G);

private:
  friend class detail::TableBuilder;

  struct OpTable {
    /// Representer count per operand position.
    SmallVector<std::uint32_t, 2> Dims;
    /// Per position: StateId -> representer index.
    SmallVector<std::vector<std::uint32_t>, 2> RepMaps;
    /// Dense row-major table over representer indices.
    std::vector<StateId> Table;
  };

  std::unique_ptr<StateTable> States;
  std::vector<StateId> LeafStates; ///< Indexed by OperatorId; InvalidState
                                   ///< for interior operators.
  std::vector<OpTable> OpTables;   ///< Indexed by OperatorId.
  std::vector<std::uint8_t> InPartition; ///< Indexed by OperatorId; 1 =
                                         ///< covered by these tables.
  Stats GenStats;
};

/// Generates CompiledTables for a grammar without dynamic costs.
///
/// Generation runs the classic worklist fixpoint, FIFO: each state is
/// projected onto every (operator, position); a projection not seen
/// before becomes a new representer, and every transition tuple it
/// completes is computed by DP over the representers' cost vectors and
/// interned at once, queueing any new state. State and representer ids
/// are therefore a pure function of the grammar and the operator subset,
/// and generation is deterministic — fingerprint() equality across runs
/// is tested, and the shipped targets' fingerprints are pinned.
class OfflineTableGen {
public:
  explicit OfflineTableGen(const Grammar &G, unsigned MaxStates = 1u << 18);

  /// Runs exhaustive state enumeration. Fails with
  /// ErrorKind::UnsupportedDynamicCosts if the grammar has dynamic costs
  /// and ErrorKind::StateLimitExceeded past the state bound.
  Expected<CompiledTables> generate();

  /// As generate(), restricted to the operator subset marked by
  /// \p InPartition (one byte per operator, 1 = member): only member
  /// operators are seeded, projected, and compiled into tables; the rest
  /// get no leaf state and no transition rows. The enumeration closes
  /// over member operators alone, so the resulting states are exactly
  /// those reachable through the partition — the hybrid backend's static
  /// majority. The grammar may carry dynamic costs as long as every
  /// member operator is dyn-free (ErrorKind::UnsupportedDynamicCosts
  /// otherwise); member arities must still be <= 4.
  Expected<CompiledTables>
  generateSubset(std::span<const std::uint8_t> InPartition);

private:
  const Grammar &G;
  unsigned MaxStates;
};

} // namespace odburg

#endif // ODBURG_OFFLINE_OFFLINETABLES_H

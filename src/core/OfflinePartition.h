//===- core/OfflinePartition.h - Offline tables seen from core ------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one dense-table index: a non-owning, flattened view of an offline
/// table set (offline/) and offlineResolve, which labels one node through
/// it without the core automaton depending on the offline layer. The
/// offline backend labels every node with it over a full generation; the
/// hybrid's automaton tries it first over the grammar's static-cost
/// partition (select/Partition.h).
///
/// The hybrid bridge rests on one invariant its backend establishes
/// before any labeling: the on-demand StateTable is *seeded* with the
/// partition's K offline states, in offline id order, so offline state
/// id i and on-demand state id i denote bit-identical states. Hash
/// consing then keeps the identification stable forever — any state the
/// on-demand slow path computes that equals an offline state dedups to
/// its id < K. A node whose operator is in the partition and whose child
/// labels are all < K can therefore be resolved by pure offline table
/// indexing (RepMaps are indexed by offline state id == on-demand state
/// id, and the resulting table entry is already a valid on-demand id),
/// skipping key construction and the cache probe. Anything else —
/// dyn-cost operators, children labeled by dyn-cost subtrees — falls
/// through to the normal on-demand probe, and the two resolutions agree
/// exactly (delta normalization makes offline states bit-equal to
/// on-demand states; tests/offline/OfflineTest proves it).
///
//===----------------------------------------------------------------------===//

#ifndef ODBURG_CORE_OFFLINEPARTITION_H
#define ODBURG_CORE_OFFLINEPARTITION_H

#include "core/State.h"
#include "grammar/Ids.h"
#include "ir/Node.h"

#include <cstdint>
#include <vector>

namespace odburg {

/// Flattened per-operator offline-table pointers, built by
/// CompiledTables::makePartitionView(). Non-owning: the CompiledTables it
/// was built from must outlive every use of the view (each tables-bearing
/// backend owns both, tables first).
struct OfflinePartitionView {
  /// Offline table rows for one operator. Fixed-width arrays because the
  /// partition policy admits only arity <= 4 (the offline generator's
  /// bound); unused slots are null/zero.
  struct OpEntry {
    /// Per position: offline StateId -> representer index, size NumStates.
    const std::uint32_t *RepMaps[4] = {nullptr, nullptr, nullptr, nullptr};
    /// Per position: representer count (the table stride).
    std::uint32_t Dims[4] = {0, 0, 0, 0};
    /// Dense row-major transition table over representer indices.
    const StateId *Table = nullptr;
    /// Leaf state; InvalidState for interior operators.
    StateId Leaf = InvalidState;
    /// True when the operator is in the static partition (its transitions
    /// are fully covered by the tables above).
    bool InPartition = false;
  };

  /// Indexed by OperatorId; size is the grammar's operator count.
  std::vector<OpEntry> Ops;

  /// K: the partition's offline state count. The hybrid automaton's
  /// seeded state ids 0..K-1 are exactly these states; a child label
  /// < K is an offline state and indexes the RepMaps directly.
  StateId NumStates = 0;
};

/// Resolves one node through the tables: a direct leaf-state read or one
/// dense table index over representer maps. Returns InvalidState when the
/// node is outside the tables' coverage — operator not in the partition,
/// or a child labeled by a state the offline enumeration never saw (id >=
/// NumStates, i.e. a dyn-cost subtree's state) — where the hybrid falls
/// through to its on-demand probe. Over a full generation it never misses.
inline StateId offlineResolve(const OfflinePartitionView &PV,
                              const ir::Node &N) {
  const OfflinePartitionView::OpEntry &E = PV.Ops[N.op()];
  if (!E.InPartition)
    return InvalidState;
  unsigned NumChildren = N.numChildren();
  if (NumChildren == 0)
    return E.Leaf;
  std::size_t Index = 0;
  for (unsigned P = 0; P < NumChildren; ++P) {
    StateId C = N.child(P)->label();
    if (C >= PV.NumStates)
      return InvalidState;
    Index = Index * E.Dims[P] + E.RepMaps[P][C];
  }
  return E.Table[Index];
}

} // namespace odburg

#endif // ODBURG_CORE_OFFLINEPARTITION_H

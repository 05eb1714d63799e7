//===- select/Partition.h - Static/dynamic operator partitioning ----------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The grammar-partitioning pass behind the hybrid backend: split the
/// operator set into the *static partition* — operators whose rules all
/// carry fixed costs (and whose arity fits the offline generator's <= 4
/// bound), compilable to burg-style offline tables ahead of time — and
/// the *dynamic remainder*, whose per-node hook outcomes only the
/// on-demand automaton can express. Real machine grammars are ~90%
/// static operators, which is exactly why the hybrid wins: the common
/// path labels at offline-table speed while the paper's dynamic-cost
/// flexibility survives on the remainder.
///
/// The partition is a pure function of the grammar, so two processes
/// (or a dump and a later load) computing it independently agree —
/// membership is compared byte-for-byte when CompiledTables come from
/// disk (see LabelerBackend::createWithTables).
///
//===----------------------------------------------------------------------===//

#ifndef ODBURG_SELECT_PARTITION_H
#define ODBURG_SELECT_PARTITION_H

#include "grammar/Grammar.h"

#include <cstdint>
#include <string>
#include <vector>

namespace odburg {

/// The computed split of a grammar's operators into the offline-
/// compilable static set and the on-demand dynamic remainder.
struct GrammarPartition {
  /// One byte per operator (indexed by OperatorId), 1 = static partition.
  /// The exact format OfflineTableGen::generateSubset and
  /// CompiledTables::partitionMembership() speak.
  std::vector<std::uint8_t> InPartition;
  /// The static-partition operators, ascending.
  std::vector<OperatorId> StaticOps;
  /// The remainder, ascending: operators with dynamic-cost rules, plus
  /// any operator whose arity exceeds the offline generator's bound.
  std::vector<OperatorId> DynOps;

  bool contains(OperatorId Op) const { return InPartition[Op] != 0; }
  unsigned numStatic() const {
    return static_cast<unsigned>(StaticOps.size());
  }
  unsigned numDynamic() const { return static_cast<unsigned>(DynOps.size()); }

  /// Computes the partition for \p G: an operator is static iff it has
  /// no dynamic-cost rules and arity <= 4. For a grammar without dynamic
  /// costs every (arity-bounded) operator is static and the hybrid
  /// degenerates to pure offline tables fronting an idle automaton.
  static GrammarPartition compute(const Grammar &G);

  /// "'op1', 'op2', ..." over the dynamic remainder — diagnostics fodder.
  std::string describeDynOps(const Grammar &G) const;
};

} // namespace odburg

#endif // ODBURG_SELECT_PARTITION_H

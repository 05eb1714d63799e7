//===- support/Statistic.h - Selection work counters -----------------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic software counters for the work the selectors perform. The
/// PLDI'06 evaluation uses hardware performance counters; these counters are
/// the software analogue: they count exactly the operations whose number the
/// competing algorithms trade off (rule checks, chain relaxations, hash
/// probes, state computations).
///
//===----------------------------------------------------------------------===//

#ifndef ODBURG_SUPPORT_STATISTIC_H
#define ODBURG_SUPPORT_STATISTIC_H

#include <cstdint>

namespace odburg {

/// Work counters shared by all labeling engines. Engines bump only the
/// counters meaningful for them; the rest stay zero.
struct SelectionStats {
  /// Nodes labeled.
  std::uint64_t NodesLabeled = 0;
  /// Base-rule applicability checks performed (DP labeler work).
  std::uint64_t RuleChecks = 0;
  /// Chain-rule relaxation steps performed.
  std::uint64_t ChainRelaxations = 0;
  /// Transition-cache probes (on-demand automaton fast path): one per
  /// node the offline partition did not resolve, so CacheProbes ==
  /// NodesLabeled - OfflineHits with the cache on.
  std::uint64_t CacheProbes = 0;
  /// Transition-cache hits.
  std::uint64_t CacheHits = 0;
  /// \name Retired warm-path tiers
  /// No engine has a per-worker L1 micro-cache or a dense-row tier any
  /// more; these stay 0. They are kept only because perfbench still
  /// reads them.
  /// @{
  std::uint64_t L1Probes = 0;
  std::uint64_t L1Hits = 0;
  std::uint64_t DenseProbes = 0;
  std::uint64_t DenseHits = 0;
  /// @}
  /// States computed from scratch (on-demand slow path / offline generator).
  std::uint64_t StatesComputed = 0;
  /// Dynamic-cost hook evaluations.
  std::uint64_t DynCostEvals = 0;
  /// Nodes resolved by direct offline-table indexing: every node on the
  /// offline backend; on the hybrid, the static-partition nodes over
  /// offline-known children, which skip key construction and the cache
  /// probe.
  std::uint64_t OfflineHits = 0;

  void reset() { *this = SelectionStats(); }

  SelectionStats &operator+=(const SelectionStats &R) {
    NodesLabeled += R.NodesLabeled;
    RuleChecks += R.RuleChecks;
    ChainRelaxations += R.ChainRelaxations;
    CacheProbes += R.CacheProbes;
    CacheHits += R.CacheHits;
    L1Probes += R.L1Probes;
    L1Hits += R.L1Hits;
    DenseProbes += R.DenseProbes;
    DenseHits += R.DenseHits;
    StatesComputed += R.StatesComputed;
    DynCostEvals += R.DynCostEvals;
    OfflineHits += R.OfflineHits;
    return *this;
  }

  /// Total per-node "work units": the sum of all counted operations. A
  /// software stand-in for the executed-instructions metric of the paper.
  std::uint64_t workUnits() const {
    return RuleChecks + ChainRelaxations + CacheProbes + StatesComputed +
           DynCostEvals + OfflineHits;
  }
};

} // namespace odburg

#endif // ODBURG_SUPPORT_STATISTIC_H

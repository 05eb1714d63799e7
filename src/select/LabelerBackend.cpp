//===- select/LabelerBackend.cpp - Pluggable labeling engines -------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "select/LabelerBackend.h"

#include "select/Partition.h"

using namespace odburg;

const char *odburg::backendName(BackendKind K) {
  switch (K) {
  case BackendKind::DP:
    return "dp";
  case BackendKind::Offline:
    return "offline";
  case BackendKind::OnDemand:
    return "ondemand";
  case BackendKind::Hybrid:
    return "hybrid";
  }
  return "?";
}

Expected<BackendKind> odburg::parseBackendKind(std::string_view Name) {
  if (Name == "dp")
    return BackendKind::DP;
  if (Name == "offline")
    return BackendKind::Offline;
  if (Name == "ondemand" || Name == "on-demand")
    return BackendKind::OnDemand;
  if (Name == "hybrid")
    return BackendKind::Hybrid;
  return Error::make(ErrorKind::UnknownBackend,
                     "unknown labeler backend '" + std::string(Name) +
                         "' (known: dp, offline, ondemand, hybrid)");
}

Expected<std::unique_ptr<LabelerBackend>>
LabelerBackend::create(BackendKind K, const Grammar &G,
                       const DynCostTable *Dyn) {
  return create(K, G, Dyn, Options());
}

Expected<std::unique_ptr<LabelerBackend>>
LabelerBackend::create(BackendKind K, const Grammar &G,
                       const DynCostTable *Dyn, const Options &Opts) {
  switch (K) {
  case BackendKind::DP:
    return std::unique_ptr<LabelerBackend>(new DPBackend(G, Dyn));
  case BackendKind::Offline:
  case BackendKind::Hybrid: {
    // Generation failures (UnsupportedDynamicCosts for offline over a
    // dyn-cost grammar, StateLimitExceeded) propagate with their kind
    // intact so drivers can dispatch (e.g. retry against Target::Fixed).
    OfflineTableGen Gen(G, Opts.OfflineMaxStates);
    Expected<CompiledTables> Tables =
        K == BackendKind::Offline
            ? Gen.generate()
            : Gen.generateSubset(GrammarPartition::compute(G).InPartition);
    if (!Tables)
      return Tables.takeError();
    return createWithTables(K, G, Dyn, Opts, std::move(*Tables));
  }
  case BackendKind::OnDemand:
    return std::unique_ptr<LabelerBackend>(new OnDemandBackend(G, Dyn, Opts));
  }
  return Error::make(ErrorKind::UnknownBackend, "invalid backend kind");
}

Expected<std::unique_ptr<LabelerBackend>>
LabelerBackend::createWithTables(BackendKind K, const Grammar &G,
                                 const DynCostTable *Dyn, const Options &Opts,
                                 CompiledTables Tables) {
  if (K != BackendKind::Offline && K != BackendKind::Hybrid)
    return Error::make(ErrorKind::MalformedInput,
                       std::string("the ") + backendName(K) +
                           " backend does not label from offline tables");
  // The offline backend has no fallback for an operator without rows.
  std::vector<std::uint8_t> Want =
      K == BackendKind::Offline
          ? std::vector<std::uint8_t>(G.numOperators(), 1)
          : GrammarPartition::compute(G).InPartition;
  if (Tables.partitionMembership() != Want)
    return Error::make(ErrorKind::MalformedInput,
                       std::string("offline tables: partition shape mismatch "
                                   "— the tables cover a different operator "
                                   "subset than the ") +
                           backendName(K) +
                           " backend labels with; regenerate them");
  if (K == BackendKind::Offline)
    return std::unique_ptr<LabelerBackend>(
        new OfflineBackend(std::move(Tables)));
  return std::unique_ptr<LabelerBackend>(
      new HybridBackend(G, Dyn, Opts, std::move(Tables)));
}

const Labeling &OfflineBackend::labelFunction(ir::IRFunction &F,
                                              LabelerScratch &,
                                              SelectionStats *Stats) {
  for (ir::Node *N : F.nodes()) {
    StateId Id = offlineResolve(View, *N);
    assert(Id != InvalidState && "full offline tables resolve every node");
    N->setLabel(Id);
  }
  if (Stats) {
    Stats->NodesLabeled += F.size();
    Stats->OfflineHits += F.size();
  }
  return *this;
}

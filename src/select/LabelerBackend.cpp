//===- select/LabelerBackend.cpp - Pluggable labeling engines -------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "select/LabelerBackend.h"

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
  case BackendKind::Offline: {
    // The generator itself reports UnsupportedDynamicCosts for dynamic
    // grammars and StateLimitExceeded past the bound; both propagate with
    // their kind intact so drivers can dispatch (e.g. fall back to the
    // on-demand backend or retry against Target::Fixed).
    Expected<CompiledTables> Tables =
        OfflineTableGen(G, Opts.OfflineMaxStates).generate();
    if (!Tables)
      return Tables.takeError();
    return std::unique_ptr<LabelerBackend>(
        new OfflineBackend(std::move(*Tables)));
  }
  case BackendKind::OnDemand:
    return std::unique_ptr<LabelerBackend>(new OnDemandBackend(G, Dyn, Opts));
  case BackendKind::Hybrid: {
    Expected<std::unique_ptr<HybridBackend>> B =
        HybridBackend::create(G, Dyn, Opts);
    if (!B)
      return B.takeError();
    return std::unique_ptr<LabelerBackend>(std::move(*B));
  }
  }
  return Error::make(ErrorKind::UnknownBackend, "invalid backend kind");
}

Expected<std::unique_ptr<HybridBackend>>
HybridBackend::create(const Grammar &G, const DynCostTable *Dyn,
                      const Options &Opts) {
  GrammarPartition P = GrammarPartition::compute(G);
  // Subset generation over the static partition: dyn-cost operators are
  // excluded by construction, so the only reachable failures are the
  // structural ones (state-limit blowouts), which propagate typed.
  Expected<CompiledTables> Tables =
      OfflineTableGen(G, Opts.OfflineMaxStates).generateSubset(P.InPartition);
  if (!Tables)
    return Tables.takeError();
  return std::unique_ptr<HybridBackend>(
      new HybridBackend(G, Dyn, Opts, std::move(P), std::move(*Tables)));
}

Expected<std::unique_ptr<HybridBackend>>
HybridBackend::createWithTables(const Grammar &G, const DynCostTable *Dyn,
                                const Options &Opts, CompiledTables Tables) {
  GrammarPartition P = GrammarPartition::compute(G);
  if (Tables.partitionMembership() != P.InPartition)
    return Error::make(
        ErrorKind::MalformedInput,
        "offline tables: partition shape mismatch — the tables cover a "
        "different operator subset than this grammar's static partition "
        "(" + std::to_string(P.numStatic()) +
            " static operators expected); regenerate them");
  return std::unique_ptr<HybridBackend>(
      new HybridBackend(G, Dyn, Opts, std::move(P), std::move(Tables)));
}

//===- registry/GrammarRegistry.cpp - Multi-tenant grammar registry -------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "registry/GrammarRegistry.h"

#include "grammar/GrammarParser.h"
#include "registry/WarmSnapshot.h"
#include "support/FaultInjection.h"
#include "targets/Target.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

using namespace odburg;
using namespace odburg::registry;

namespace {

/// Spool file names are derived from client-supplied grammar names, so
/// the alphabet is a strict allowlist — no separators, no dots, nothing
/// that could escape the spool directory.
bool isSpoolableName(std::string_view Name) {
  if (Name.empty() || Name.size() > 128)
    return false;
  for (char C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_' && C != '-')
      return false;
  return true;
}

bool isBuiltinTarget(std::string_view Name) {
  const std::vector<std::string> &Names = targets::targetNames();
  return std::find(Names.begin(), Names.end(), Name) != Names.end();
}

bool parseHexFingerprint(std::string_view Name, std::uint64_t &Fp) {
  if (Name.size() != 16)
    return false;
  Fp = 0;
  for (char C : Name) {
    unsigned D;
    if (C >= '0' && C <= '9')
      D = C - '0';
    else if (C >= 'a' && C <= 'f')
      D = C - 'a' + 10;
    else
      return false;
    Fp = (Fp << 4) | D;
  }
  return true;
}

/// Writes \p Body to \p Path atomically (tmp file + rename) so a crashed
/// or concurrent writer can never leave a torn artifact for load() to
/// trip over.
template <typename WriteBody>
Error writeSpoolFile(const std::string &Path, WriteBody &&Body) {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream OS(Tmp, std::ios::binary | std::ios::trunc);
    if (!OS)
      return Error::make("cannot open '" + Tmp + "' for writing");
    if (Error E = Body(OS))
      return E;
    if (!OS.flush())
      return Error::make("failed to write '" + Tmp + "'");
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0)
    return Error::make("failed to rename '" + Tmp + "' into place");
  return Error::success();
}

} // namespace

//===----------------------------------------------------------------------===//
// GrammarEntry
//===----------------------------------------------------------------------===//

GrammarEntry::GrammarEntry(GrammarRegistry &Owner, std::string Name,
                           Grammar FullG, DynCostTable DynT,
                           std::optional<Grammar> FixedG, std::uint64_t Epoch)
    : Owner(Owner), Name(std::move(Name)), Epoch(Epoch), Full(std::move(FullG)),
      Dyn(std::move(DynT)), Fixed(std::move(FixedG)) {
  Fp = Full.fingerprint();
}

void GrammarEntry::touch() { LastUse.store(Owner.tick(), std::memory_order_relaxed); }

void GrammarEntry::dropBackends() {
  std::lock_guard<std::mutex> Lock(M);
  for (std::unique_ptr<LabelerBackend> &B : Backends)
    B.reset();
}

std::size_t GrammarEntry::backendBytes() const {
  std::lock_guard<std::mutex> Lock(M);
  std::size_t Bytes = 0;
  for (const std::unique_ptr<LabelerBackend> &B : Backends)
    if (B)
      Bytes += B->memoryBytes();
  return Bytes;
}

Expected<LabelerBackend *> GrammarEntry::backend(BackendKind K) {
  std::lock_guard<std::mutex> Lock(M);
  touch();
  std::unique_ptr<LabelerBackend> &Slot = Backends[static_cast<unsigned>(K)];
  if (Slot)
    return Slot.get();

  const GrammarRegistry::Options &RO = Owner.options();
  const Grammar &G = grammar(K);
  const DynCostTable *D = dynCosts(K);
  std::string TablesPath, WarmPath;
  if (!RO.Dir.empty() && isSpoolableName(Name)) {
    const char *TablesSuffix =
        K == BackendKind::Hybrid ? ".hybrid.tables" : ".tables";
    const char *WarmSuffix = K == BackendKind::Hybrid ? ".hybrid.warm" : ".warm";
    TablesPath = RO.Dir + "/" + Name + TablesSuffix;
    WarmPath = RO.Dir + "/" + Name + WarmSuffix;
  }

  // Tables-bearing backends first try the spool; a missing, corrupt,
  // mismatched, or fault-injected dump degrades to regeneration, and the
  // regenerated tables are written back so the cost is paid once.
  std::unique_ptr<LabelerBackend> Built;
  bool LoadedTables = false;
  if ((K == BackendKind::Offline || K == BackendKind::Hybrid) &&
      !TablesPath.empty() && !fault::shouldFail(fault::Site::RegistryLoad)) {
    std::ifstream IS(TablesPath, std::ios::binary);
    if (IS) {
      Expected<CompiledTables> T = CompiledTables::load(IS, G);
      if (T) {
        if (K == BackendKind::Offline) {
          Built = std::make_unique<OfflineBackend>(std::move(*T));
          LoadedTables = true;
        } else {
          Expected<std::unique_ptr<HybridBackend>> H =
              HybridBackend::createWithTables(G, D, RO.BackendOpts,
                                              std::move(*T));
          if (H) {
            Built = std::move(*H);
            LoadedTables = true;
          }
        }
      }
    }
  }
  if (LoadedTables)
    Owner.TablesLoads.fetch_add(1, std::memory_order_relaxed);

  if (!Built) {
    Expected<std::unique_ptr<LabelerBackend>> B =
        LabelerBackend::create(K, G, D, RO.BackendOpts);
    if (!B)
      return B.takeError();
    Built = std::move(*B);
    // Respool freshly generated tables, best-effort: a failed write only
    // costs the next process a regeneration.
    if (RO.SaveTables && !TablesPath.empty() &&
        (K == BackendKind::Offline || K == BackendKind::Hybrid)) {
      const CompiledTables &T =
          K == BackendKind::Offline
              ? static_cast<const OfflineBackend &>(*Built).tables()
              : static_cast<const HybridBackend &>(*Built).tables();
      Error W = writeSpoolFile(TablesPath,
                               [&](std::ostream &OS) { return T.dump(OS); });
      W.consume();
    }
  }

  // Warm-automaton restore: only ever additive (the snapshot replays
  // states and memoized transitions), so a failure is a cold start, never
  // an error — label traffic rebuilds what the snapshot would have
  // provided.
  if ((K == BackendKind::OnDemand || K == BackendKind::Hybrid) &&
      RO.LoadSnapshots && !WarmPath.empty()) {
    OnDemandAutomaton &A = static_cast<OnDemandBackend &>(*Built).automaton();
    std::ifstream IS(WarmPath, std::ios::binary);
    bool Hit = false;
    if (IS) {
      Expected<WarmSnapshotStats> S = loadWarmSnapshot(A, G, IS);
      Hit = static_cast<bool>(S);
    }
    if (Hit)
      Owner.SnapshotHits.fetch_add(1, std::memory_order_relaxed);
    else
      Owner.SnapshotMisses.fetch_add(1, std::memory_order_relaxed);
  }

  Slot = std::move(Built);
  return Slot.get();
}

//===----------------------------------------------------------------------===//
// GrammarRegistry
//===----------------------------------------------------------------------===//

Expected<std::shared_ptr<GrammarEntry>>
GrammarRegistry::buildFromSource(std::string_view Name, std::uint64_t Epoch) {
  if (isBuiltinTarget(Name)) {
    Expected<std::unique_ptr<targets::Target>> T = targets::makeTarget(Name);
    if (!T)
      return T.takeError();
    return std::shared_ptr<GrammarEntry>(new GrammarEntry(
        *this, std::string(Name), std::move((*T)->G), std::move((*T)->Dyn),
        std::move((*T)->Fixed), Epoch));
  }
  if (!isSpoolableName(Name))
    return Error::make(ErrorKind::MalformedInput,
                       "invalid grammar name '" + std::string(Name) +
                           "' (want [A-Za-z0-9_-]+, a built-in target, or a "
                           "resident fingerprint)");
  if (Opts.Dir.empty())
    return Error::make("unknown grammar '" + std::string(Name) +
                       "' (no registry directory configured)");
  std::string Path = Opts.Dir + "/" + std::string(Name) + ".odg";
  std::ifstream IS(Path);
  if (!IS)
    return Error::make("unknown grammar '" + std::string(Name) + "' (no '" +
                       Path + "')");
  std::ostringstream Text;
  Text << IS.rdbuf();
  Expected<Grammar> G = parseGrammar(Text.str());
  if (!G)
    return G.takeError();
  Expected<DynCostTable> Dyn = DynCostTable::build(*G, targets::standardHooks());
  if (!Dyn)
    return Dyn.takeError();
  return std::shared_ptr<GrammarEntry>(
      new GrammarEntry(*this, std::string(Name), std::move(*G),
                       std::move(*Dyn), std::nullopt, Epoch));
}

Expected<std::shared_ptr<GrammarEntry>>
GrammarRegistry::resolveLocked(std::string_view Name) {
  auto It = Entries.find(Name);
  if (It != Entries.end())
    return It->second;
  std::uint64_t Fp = 0;
  if (parseHexFingerprint(Name, Fp)) {
    for (auto &[N, E] : Entries)
      if (E->fingerprint() == Fp)
        return E;
    // Fall through: a 16-hex name could still be a spool file.
  }
  Expected<std::shared_ptr<GrammarEntry>> E = buildFromSource(Name, 1);
  if (!E)
    return E.takeError();
  Entries.emplace(std::string(Name), *E);
  return *E;
}

Expected<Lease> GrammarRegistry::acquire(std::string_view Name) {
  Lease L;
  {
    std::lock_guard<std::mutex> Lock(M);
    Expected<std::shared_ptr<GrammarEntry>> E = resolveLocked(Name);
    if (!E)
      return E.takeError();
    Acquires.fetch_add(1, std::memory_order_relaxed);
    (*E)->touch();
    L = Lease(std::move(*E));
  }
  maintain();
  return L;
}

Expected<Lease> GrammarRegistry::registerGrammar(std::string_view Name,
                                                 Grammar Full, DynCostTable Dyn,
                                                 std::optional<Grammar> Fixed) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Entries.find(Name);
  std::uint64_t Epoch = It != Entries.end() ? It->second->epoch() + 1 : 1;
  std::shared_ptr<GrammarEntry> E(
      new GrammarEntry(*this, std::string(Name), std::move(Full),
                       std::move(Dyn), std::move(Fixed), Epoch));
  if (It != Entries.end()) {
    if (It->second->fingerprint() == E->fingerprint()) {
      It->second->touch();
      return Lease(It->second);
    }
    HotSwaps.fetch_add(1, std::memory_order_relaxed);
    It->second = E; // The old entry retires when its last lease drops.
  } else {
    Entries.emplace(std::string(Name), E);
  }
  E->touch();
  return Lease(std::move(E));
}

Expected<Lease> GrammarRegistry::reload(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Entries.find(Name);
  std::uint64_t Epoch = It != Entries.end() ? It->second->epoch() + 1 : 1;
  Expected<std::shared_ptr<GrammarEntry>> E = buildFromSource(Name, Epoch);
  if (!E)
    return E.takeError();
  if (It != Entries.end()) {
    if (It->second->fingerprint() == (*E)->fingerprint()) {
      It->second->touch();
      return Lease(It->second);
    }
    HotSwaps.fetch_add(1, std::memory_order_relaxed);
    It->second = *E;
  } else {
    Entries.emplace(std::string(Name), *E);
  }
  (*E)->touch();
  return Lease(std::move(*E));
}

void GrammarRegistry::maintain() {
  // The whole pass holds the registry mutex: leases are only ever created
  // under it, so an entry observed unpinned here stays unpinned until we
  // are done — dropping its backends cannot race a labeling session.
  std::lock_guard<std::mutex> Lock(M);
  bool Forced = fault::shouldFail(fault::Site::RegistryEvict);
  std::uint64_t Budget = Opts.MemBudgetBytes;
  if (Budget == 0 && !Forced)
    return;

  struct Candidate {
    GrammarEntry *E;
    std::uint64_t LastUse;
    std::size_t Bytes;
  };
  std::uint64_t Total = 0;
  std::vector<Candidate> Unpinned;
  for (auto &[N, E] : Entries) {
    std::size_t Bytes = E->backendBytes();
    Total += Bytes;
    if (E->Pins.load(std::memory_order_acquire) == 0 && Bytes > 0)
      Unpinned.push_back(
          {E.get(), E->LastUse.load(std::memory_order_relaxed), Bytes});
  }
  std::sort(Unpinned.begin(), Unpinned.end(),
            [](const Candidate &A, const Candidate &B) {
              return A.LastUse < B.LastUse;
            });

  for (const Candidate &C : Unpinned) {
    if (!Forced && (Budget == 0 || Total <= Budget))
      break;
    C.E->dropBackends();
    Total -= C.Bytes;
    Evictions.fetch_add(1, std::memory_order_relaxed);
  }

  // Pressure hysteresis over what eviction could not reclaim (pinned
  // entries): on above budget, off below 90% of it.
  if (Budget != 0) {
    bool On = Pressure.load(std::memory_order_relaxed);
    if (!On && Total > Budget)
      Pressure.store(true, std::memory_order_relaxed);
    else if (On && Total * 10 < Budget * 9)
      Pressure.store(false, std::memory_order_relaxed);
  }
}

Error GrammarRegistry::dumpWarmSnapshots() {
  if (Opts.Dir.empty())
    return Error::success();
  std::vector<std::shared_ptr<GrammarEntry>> Snapshot;
  {
    std::lock_guard<std::mutex> Lock(M);
    for (auto &[N, E] : Entries)
      Snapshot.push_back(E);
  }
  Error First = Error::success();
  for (const std::shared_ptr<GrammarEntry> &E : Snapshot) {
    if (!isSpoolableName(E->name()))
      continue;
    for (BackendKind K : {BackendKind::OnDemand, BackendKind::Hybrid}) {
      std::lock_guard<std::mutex> Lock(E->M);
      const std::unique_ptr<LabelerBackend> &B =
          E->Backends[static_cast<unsigned>(K)];
      if (!B)
        continue;
      const OnDemandAutomaton &A =
          static_cast<const OnDemandBackend &>(*B).automaton();
      std::string Path =
          Opts.Dir + "/" + E->name() +
          (K == BackendKind::Hybrid ? ".hybrid.warm" : ".warm");
      Error W = writeSpoolFile(Path, [&](std::ostream &OS) {
        return dumpWarmSnapshot(A, E->grammar(K), OS);
      });
      if (W && !First)
        First = std::move(W);
    }
  }
  return First;
}

std::size_t GrammarRegistry::backendBytes() const {
  std::lock_guard<std::mutex> Lock(M);
  std::size_t Total = 0;
  for (const auto &[N, E] : Entries)
    Total += E->backendBytes();
  return Total;
}

RegistryStats GrammarRegistry::statsSnapshot() const {
  RegistryStats S;
  {
    std::lock_guard<std::mutex> Lock(M);
    S.ResidentGrammars = Entries.size();
    for (const auto &[N, E] : Entries)
      S.BackendBytes += E->backendBytes();
  }
  S.Acquires = Acquires.load(std::memory_order_relaxed);
  S.Evictions = Evictions.load(std::memory_order_relaxed);
  S.HotSwaps = HotSwaps.load(std::memory_order_relaxed);
  S.SnapshotHits = SnapshotHits.load(std::memory_order_relaxed);
  S.SnapshotMisses = SnapshotMisses.load(std::memory_order_relaxed);
  S.TablesLoads = TablesLoads.load(std::memory_order_relaxed);
  S.MemoryPressure = Pressure.load(std::memory_order_relaxed);
  return S;
}

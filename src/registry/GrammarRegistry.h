//===- registry/GrammarRegistry.h - Multi-tenant grammar registry ---------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-tenant layer between the labeling backends and the server:
/// one process, many grammars, shared warm state. A GrammarRegistry maps
/// a grammar name (and its content fingerprint) to a refcounted
/// GrammarEntry holding the per-grammar shared backend state — one
/// DP/offline/on-demand/hybrid LabelerBackend per kind, created lazily
/// and shared by every session on that grammar, so the paper's
/// amortization argument holds across *clients*, not just functions.
///
/// The pattern follows GF-core's PGF runtime (see
/// docs/pgf-reader-pattern.md): grammars are compiled once into on-disk
/// artifacts and revalidated, never re-derived, at load. The registry's
/// spool directory holds, per grammar name:
///
///   <name>.odg           grammar text (loadable on first GRAMMAR handshake)
///   <name>.tables        CompiledTables v2 for the offline backend
///   <name>.hybrid.tables CompiledTables v2 for the hybrid static partition
///   <name>.warm          warm on-demand automaton snapshot
///   <name>.hybrid.warm   warm snapshot of the hybrid automaton
///
/// Three policies live here:
///
///   - *Eviction.* Entries are pinned by RAII Leases (one per connection
///     or session). maintain() sums the resident backends' bytes against
///     the budget and drops the backend state of least-recently-used
///     unpinned entries (counted in stats; the entry itself stays and
///     cold-starts on re-access). When everything over budget is pinned,
///     it raises the memory-pressure flag (RegistryStats::MemoryPressure)
///     instead — report, not drop. The fault::Site::RegistryEvict chaos site forces an eviction
///     pass regardless of budget.
///   - *Hot swap.* Installing a new version under an existing name bumps
///     the entry epoch: new acquires see the new entry immediately, while
///     leases on the old epoch keep its backends alive until the last one
///     drops — in-flight work completes byte-identically on the version
///     it started with.
///   - *Warm persistence.* On-demand/hybrid backends try their warm
///     snapshot at creation (a failed or fault-injected load degrades to
///     a cold start, counted as a snapshot miss); dumpWarmSnapshots()
///     writes them back, so a drained-and-restarted server serves its
///     first batch out of the warm transition cache.
///
//===----------------------------------------------------------------------===//

#ifndef ODBURG_REGISTRY_GRAMMARREGISTRY_H
#define ODBURG_REGISTRY_GRAMMARREGISTRY_H

#include "select/LabelerBackend.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace odburg {
namespace registry {

class GrammarRegistry;

/// A registry-wide counter snapshot; the server's STATS registry section.
struct RegistryStats {
  std::uint64_t ResidentGrammars = 0;
  std::uint64_t Acquires = 0;
  std::uint64_t Evictions = 0;
  std::uint64_t HotSwaps = 0;
  std::uint64_t SnapshotHits = 0;
  std::uint64_t SnapshotMisses = 0;
  std::uint64_t TablesLoads = 0;
  std::uint64_t BackendBytes = 0;
  bool MemoryPressure = false;
};

/// One resident grammar version: identity, the grammar (plus its
/// dyn-free variant for the offline lane, when available), and the
/// lazily created shared backends. Reached only through a Lease.
class GrammarEntry {
public:
  const std::string &name() const { return Name; }
  std::uint64_t fingerprint() const { return Fp; }
  /// Version counter under this name; bumped by every hot swap.
  std::uint64_t epoch() const { return Epoch; }

  /// The grammar backend kind \p K labels against: the dyn-free variant
  /// for the offline backend when the source provides one (built-in
  /// targets), the full grammar otherwise.
  const Grammar &grammar(BackendKind K) const {
    return K == BackendKind::Offline && Fixed ? *Fixed : Full;
  }
  /// The hook table for \p K; null for the offline backend (its grammar
  /// variant carries no hooks).
  const DynCostTable *dynCosts(BackendKind K) const {
    return K == BackendKind::Offline ? nullptr : &Dyn;
  }

  /// The shared backend of kind \p K, created on first use: compiled
  /// tables come from the registry spool when a valid dump exists
  /// (regenerated and respooled otherwise), and on-demand/hybrid
  /// automata restore their warm snapshot when one loads cleanly.
  /// Thread-safe; concurrent callers get the same backend. Propagates
  /// typed creation failures (e.g. offline × dynamic costs).
  Expected<LabelerBackend *> backend(BackendKind K);

  /// Bytes held by the created backends.
  std::size_t backendBytes() const;

private:
  friend class GrammarRegistry;
  friend class Lease;

  GrammarEntry(GrammarRegistry &Owner, std::string Name, Grammar Full,
               DynCostTable Dyn, std::optional<Grammar> Fixed,
               std::uint64_t Epoch);

  /// Drops all backend state (the eviction payload). Caller guarantees
  /// Pins == 0 — nothing can be labeling against the backends.
  void dropBackends();
  void touch();

  GrammarRegistry &Owner;
  std::string Name;
  std::uint64_t Fp;
  std::uint64_t Epoch;
  Grammar Full;
  DynCostTable Dyn;
  std::optional<Grammar> Fixed;

  mutable std::mutex M;
  std::array<std::unique_ptr<LabelerBackend>, NumBackendKinds>
      Backends;
  /// Outstanding leases; eviction skips pinned entries.
  std::atomic<std::uint64_t> Pins{0};
  /// Registry-clock tick of the last acquire/backend use (LRU key).
  std::atomic<std::uint64_t> LastUse{0};
};

/// RAII pin on a GrammarEntry. While any lease is live the entry's
/// backends are never evicted and a hot-swapped-out entry stays alive —
/// release order is therefore: stop labeling, destroy the services
/// borrowing the backends, then drop the lease. Move-only. The registry
/// must outlive every lease it issued.
class Lease {
public:
  Lease() = default;
  Lease(Lease &&O) noexcept : E(std::move(O.E)) { O.E = nullptr; }
  Lease &operator=(Lease &&O) noexcept {
    if (this != &O) {
      release();
      E = std::move(O.E);
      O.E = nullptr;
    }
    return *this;
  }
  Lease(const Lease &) = delete;
  Lease &operator=(const Lease &) = delete;
  ~Lease() { release(); }

  /// Unpins now instead of at destruction.
  void release() {
    if (E)
      E->Pins.fetch_sub(1, std::memory_order_acq_rel);
    E = nullptr;
  }

  /// A second pin on the same entry. Safe without the registry lock:
  /// this lease already holds a pin, so the entry cannot be mid-eviction
  /// — maintain()'s "Pins == 0 stays 0 for the whole pass" invariant
  /// only needs fresh pins to come from under the registry mutex or from
  /// an existing pin. The server's lane cache uses this to keep an entry
  /// pinned for a lane's whole life, not just one connection's.
  Lease clone() const { return Lease(E); }

  explicit operator bool() const { return E != nullptr; }
  GrammarEntry *operator->() const { return E.get(); }
  GrammarEntry &operator*() const { return *E; }
  GrammarEntry *entry() const { return E.get(); }

private:
  friend class GrammarRegistry;
  explicit Lease(std::shared_ptr<GrammarEntry> Entry) : E(std::move(Entry)) {
    if (E)
      E->Pins.fetch_add(1, std::memory_order_acq_rel);
  }

  std::shared_ptr<GrammarEntry> E;
};

/// The registry. Thread-safe throughout; one per server process.
class GrammarRegistry {
public:
  struct Options {
    /// Spool directory (grammar text, compiled tables, warm snapshots).
    /// Empty = purely in-memory: only built-in targets and
    /// registerGrammar() sources resolve, nothing persists.
    std::string Dir;
    /// Global budget over all resident backends' bytes; 0 = unlimited.
    std::uint64_t MemBudgetBytes = 0;
    /// Creation options for every backend the registry builds.
    LabelerBackend::Options BackendOpts;
    /// Try <name>.warm / <name>.hybrid.warm at backend creation.
    bool LoadSnapshots = true;
    /// Write freshly generated tables back to the spool.
    bool SaveTables = true;
  };

  explicit GrammarRegistry(Options O) : Opts(std::move(O)) {}

  /// Resolves \p Name to a pinned lease on its current version, loading
  /// it on first use: a resident entry, a 16-hex-digit fingerprint of a
  /// resident entry, a built-in target name (x86, mips, ...), or
  /// <Dir>/<Name>.odg grammar text (hooks bound from
  /// targets::standardHooks). Unknown names and path-escaping characters
  /// fail typed. Runs maintain() on the way out.
  Expected<Lease> acquire(std::string_view Name);

  /// Installs \p Full (with \p Dyn bound to it, and optionally the
  /// dyn-free \p Fixed variant for the offline lane) under \p Name. A
  /// different fingerprint than the resident version is a hot swap: the
  /// epoch bumps and the old entry retires once its leases drop; an
  /// identical fingerprint returns the resident entry untouched.
  Expected<Lease> registerGrammar(std::string_view Name, Grammar Full,
                                  DynCostTable Dyn,
                                  std::optional<Grammar> Fixed = std::nullopt);

  /// Re-resolves \p Name from its source (built-in or .odg text) and
  /// hot-swaps if the content changed. The .odg-file path of a live
  /// reload ("edit the grammar, poke the server").
  Expected<Lease> reload(std::string_view Name);

  /// The eviction pass; also run by acquire(). Over budget it drops the
  /// backends of LRU unpinned entries until under; if pinned entries
  /// alone exceed the budget it raises the memory-pressure flag instead
  /// (released below 90% of budget). fault::Site::RegistryEvict forces
  /// the drop of every unpinned entry's backends.
  void maintain();

  /// Writes the warm snapshot of every resident on-demand/hybrid backend
  /// to the spool (tmp-file-then-rename). No-op without a spool dir.
  /// Call when quiescent (server drain).
  Error dumpWarmSnapshots();

  /// Bytes over all resident entries' backends.
  std::size_t backendBytes() const;

  RegistryStats statsSnapshot() const;

  const Options &options() const { return Opts; }

private:
  friend class GrammarEntry;

  Expected<std::shared_ptr<GrammarEntry>> resolveLocked(std::string_view Name);
  Expected<std::shared_ptr<GrammarEntry>> buildFromSource(std::string_view Name,
                                                          std::uint64_t Epoch);
  std::uint64_t tick() { return Clock.fetch_add(1, std::memory_order_relaxed); }

  Options Opts;
  mutable std::mutex M;
  std::map<std::string, std::shared_ptr<GrammarEntry>, std::less<>> Entries;
  std::atomic<std::uint64_t> Clock{1};
  std::atomic<bool> Pressure{false};

  std::atomic<std::uint64_t> Acquires{0};
  std::atomic<std::uint64_t> Evictions{0};
  std::atomic<std::uint64_t> HotSwaps{0};
  std::atomic<std::uint64_t> SnapshotHits{0};
  std::atomic<std::uint64_t> SnapshotMisses{0};
  std::atomic<std::uint64_t> TablesLoads{0};
};

} // namespace registry
} // namespace odburg

#endif // ODBURG_REGISTRY_GRAMMARREGISTRY_H

//===- select/LabelerBackend.h - Pluggable labeling engines ---------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's central experiment is a three-way comparison: iburg-style
/// selection-time dynamic programming, burg-style offline tables, and
/// on-demand automata. This layer turns that comparison into a runtime-
/// selectable product feature: every labeling engine is wrapped in a
/// LabelerBackend with one shape —
///
///   - *shared state* is built once per grammar at create() time (the
///     offline tables, the on-demand automaton's tables — or nothing, for
///     the DP labeler) and is safe to label against from many threads;
///   - *per-worker state* lives in a LabelerScratch the caller owns, one
///     per worker thread: the DP backend's reusable label table, the
///     on-demand backend's SoA node mirror;
///   - labelFunction(F, Scratch) labels one function and returns the
///     Labeling view the reducer consumes. The view is valid until the
///     same scratch labels the next function, which is exactly the
///     label→reduce→emit lifetime of the compile pipeline.
///
/// pipeline/CompileService (and its batch wrapper, CompileSession) owns
/// one backend (Options::Backend) and is otherwise engine-agnostic;
/// tools/odburg-run and tools/odburg-serve expose the choice as
/// --backend so the paper's flexibility/speed/generation-cost trade-offs
/// reproduce from one CLI — batch and streaming alike.
///
//===----------------------------------------------------------------------===//

#ifndef ODBURG_SELECT_LABELERBACKEND_H
#define ODBURG_SELECT_LABELERBACKEND_H

#include "core/OnDemandAutomaton.h"
#include "offline/OfflineTables.h"
#include "select/DPLabeler.h"
#include "select/Partition.h"
#include "select/DynCost.h"
#include "select/Labeling.h"
#include "support/Error.h"
#include "support/Statistic.h"

#include <memory>
#include <string_view>

namespace odburg {

/// The three labeling engines of the paper's comparison, plus the
/// synthesis of its two poles.
enum class BackendKind {
  /// iburg-style selection-time dynamic programming: no shared tables, no
  /// warm-up, full dynamic-cost support; per-node work grows with the
  /// rules-per-operator count.
  DP,
  /// burg-style ahead-of-time tables: all states enumerated before any
  /// input; labeling is pure array indexing; no dynamic costs, ever.
  Offline,
  /// The paper's on-demand automaton: states built lazily at selection
  /// time, one cache probe per node after warm-up, dynamic costs folded
  /// into the transition key.
  OnDemand,
  /// Offline tables on the grammar's static-cost operator partition
  /// (see select/Partition.h), bridged into an on-demand automaton that
  /// serves the dyn-cost remainder: offline lookup speed on the common
  /// path, the paper's dynamic-cost flexibility everywhere else, byte-
  /// identical output to every other backend.
  Hybrid,
};

/// Number of BackendKind values — sizes per-backend arrays (e.g. the TCP
/// server's lanes). Keep in sync with the enum.
inline constexpr unsigned NumBackendKinds = 4;

/// Canonical lower-case name ("dp", "offline", "ondemand", "hybrid").
const char *backendName(BackendKind K);

/// Parses a backend name as accepted by --backend. Fails with
/// ErrorKind::UnknownBackend, listing the known names.
Expected<BackendKind> parseBackendKind(std::string_view Name);

/// Per-worker labeling scratch. Callers (one per worker thread) default-
/// construct it and pass the same object to every labelFunction call; the
/// backends own its contents. Reusable across functions, batches,
/// backends and sessions: it holds buffers only, never state ids, so
/// nothing in it can go stale when it moves to another grammar. The
/// compile service keeps one per pool slot for its whole lifetime
/// (grow-only, surviving pool resizes), so the buffers' capacity stays
/// warm for as long as the service runs.
class LabelerScratch {
public:
  LabelerScratch() = default;
  LabelerScratch(const LabelerScratch &) = delete;
  LabelerScratch &operator=(const LabelerScratch &) = delete;

private:
  friend class DPBackend;
  friend class OnDemandBackend;

  /// DP backend: the reused per-function label table.
  DPLabeling DP;
  /// On-demand backend: the worker's arena-backed SoA node mirror for the
  /// batched labeling path (see core/OnDemandAutomaton.h, LabelBatch).
  LabelBatch Batch;
};

/// A labeling engine behind the uniform create-once / label-per-worker
/// shape. Implementations are safe for concurrent labelFunction calls as
/// long as each call uses a distinct (function, scratch) pair.
class LabelerBackend {
public:
  /// Creation-time tunables; each backend reads only its own.
  struct Options {
    /// On-demand: the automaton's own tunables.
    OnDemandAutomaton::Options Automaton;
    /// Offline: state bound for exhaustive generation.
    unsigned OfflineMaxStates = 1u << 18;
    /// Offline: worker threads for table generation (0 = hardware
    /// concurrency, 1 = sequential). Tables are bit-identical for any
    /// count, so the default uses every core.
    unsigned OfflineGenThreads = 0;
  };

  virtual ~LabelerBackend() = default;

  virtual BackendKind kind() const = 0;

  /// Labels all nodes of \p F using \p Scratch (owned by exactly one
  /// worker) and returns the Labeling the reducer should read. The view
  /// is invalidated by the next labelFunction call on the same scratch.
  virtual const Labeling &labelFunction(ir::IRFunction &F,
                                        LabelerScratch &Scratch,
                                        SelectionStats *Stats = nullptr) = 0;

  /// Whether the engine can evaluate dynamic-cost hooks at all.
  virtual bool supportsDynCosts() const = 0;

  /// States materialized in shared tables (0 for the DP backend).
  virtual unsigned numStates() const = 0;

  /// Approximate shared-state footprint in bytes.
  virtual std::size_t memoryBytes() const = 0;

  /// Builds the backend for \p G. \p Dyn may be null for grammars without
  /// dynamic costs; it must outlive the backend, as must \p G. Fails with
  /// ErrorKind::UnsupportedDynamicCosts when the offline backend is asked
  /// for a dynamic-cost grammar, and propagates generation failures
  /// (e.g. ErrorKind::StateLimitExceeded) otherwise. DP and on-demand
  /// creation cannot fail. (Two overloads rather than a defaulted Options
  /// parameter: a nested class with member initializers cannot be a
  /// default argument inside its enclosing class.)
  static Expected<std::unique_ptr<LabelerBackend>>
  create(BackendKind K, const Grammar &G, const DynCostTable *Dyn = nullptr);
  static Expected<std::unique_ptr<LabelerBackend>>
  create(BackendKind K, const Grammar &G, const DynCostTable *Dyn,
         const Options &Opts);
};

/// iburg-style DP labeling behind the backend interface. All shared state
/// is the grammar itself; the scratch carries the label table.
class DPBackend final : public LabelerBackend {
public:
  DPBackend(const Grammar &G, const DynCostTable *Dyn) : Labeler(G, Dyn) {}

  BackendKind kind() const override { return BackendKind::DP; }
  const Labeling &labelFunction(ir::IRFunction &F, LabelerScratch &Scratch,
                                SelectionStats *Stats) override {
    Labeler.labelInto(F, Scratch.DP, Stats);
    return Scratch.DP;
  }
  bool supportsDynCosts() const override { return true; }
  unsigned numStates() const override { return 0; }
  std::size_t memoryBytes() const override { return 0; }

private:
  DPLabeler Labeler;
};

/// burg-style offline tables behind the backend interface. The tables are
/// generated at create() time; labeling is pure array indexing and the
/// backend itself is the Labeling (states live in node label slots).
class OfflineBackend final : public LabelerBackend {
public:
  explicit OfflineBackend(CompiledTables Tables)
      : Tables(std::move(Tables)), Labeler(this->Tables) {}

  BackendKind kind() const override { return BackendKind::Offline; }
  const Labeling &labelFunction(ir::IRFunction &F, LabelerScratch &,
                                SelectionStats *Stats) override {
    Labeler.labelFunction(F, Stats);
    return Labeler;
  }
  bool supportsDynCosts() const override { return false; }
  unsigned numStates() const override { return Tables.stats().NumStates; }
  std::size_t memoryBytes() const override {
    return Tables.stats().TableBytes;
  }

  const CompiledTables &tables() const { return Tables; }

private:
  CompiledTables Tables;
  TableLabeler Labeler;
};

/// The on-demand automaton behind the backend interface. One shared
/// automaton serves all workers; each worker labels through the SoA
/// batched path with its own scratch. HybridBackend derives from this:
/// same labeling loop, with the automaton's offline-partition dispatch
/// armed.
class OnDemandBackend : public LabelerBackend {
public:
  OnDemandBackend(const Grammar &G, const DynCostTable *Dyn,
                  const Options &Opts)
      : A(G, Dyn, Opts.Automaton) {}

  BackendKind kind() const override { return BackendKind::OnDemand; }
  const Labeling &labelFunction(ir::IRFunction &F, LabelerScratch &Scratch,
                                SelectionStats *Stats) override {
    A.labelFunctionBatched(F, Scratch.Batch, Stats);
    return A;
  }
  bool supportsDynCosts() const override { return true; }
  unsigned numStates() const override { return A.numStates(); }
  std::size_t memoryBytes() const override { return A.memoryBytes(); }

  const OnDemandAutomaton &automaton() const { return A; }
  /// Mutable access for the warm-snapshot bridge (registry/WarmSnapshot.h):
  /// state/transition import before the first labeling call, quiescent
  /// transition dumps after.
  OnDemandAutomaton &automaton() { return A; }

protected:
  OnDemandAutomaton A;
};

/// The hybrid backend: the synthesis of the paper's two poles. The
/// grammar's operators are partitioned (select/Partition.h) into a
/// static-cost set, compiled through OfflineTableGen::generateSubset
/// into the same dense tables the pure offline backend uses, and a
/// dyn-cost remainder the inherited on-demand machinery serves. Before
/// any labeling the automaton's state table is seeded with the
/// partition's offline states in id order, identifying the two id
/// spaces, and the partition view is attached — from then on the
/// automaton's hot loop resolves every static-partition node over
/// offline-known children by one direct table index
/// (SelectionStats::OfflineHits), and everything else through the
/// normal cache probe. Output is byte-identical to dp on every
/// grammar, including dyn-cost grammars the pure offline backend
/// rejects.
class HybridBackend final : public OnDemandBackend {
public:
  /// Computes the partition, generates subset tables (propagating typed
  /// generation failures such as StateLimitExceeded), and arms the
  /// automaton. Cannot fail with UnsupportedDynamicCosts: dyn-cost
  /// operators land in the remainder by construction.
  static Expected<std::unique_ptr<HybridBackend>>
  create(const Grammar &G, const DynCostTable *Dyn, const Options &Opts);

  /// As create() over already-generated (typically disk-loaded) tables.
  /// Fails with ErrorKind::MalformedInput when \p Tables' partition
  /// membership differs from the one compute() yields for \p G — a
  /// partition-shape mismatch means the dump belongs to a different
  /// grammar or policy version and must be regenerated.
  static Expected<std::unique_ptr<HybridBackend>>
  createWithTables(const Grammar &G, const DynCostTable *Dyn,
                   const Options &Opts, CompiledTables Tables);

  BackendKind kind() const override { return BackendKind::Hybrid; }
  /// Automaton states (seeded offline states included) plus nothing else:
  /// the tables' states are the seeded ones, already counted.
  std::size_t memoryBytes() const override {
    return OnDemandBackend::memoryBytes() + Tables.stats().TableBytes;
  }

  /// The static partition's compiled tables (dump() these to persist the
  /// partition across processes — odburg-serve --tables).
  const CompiledTables &tables() const { return Tables; }
  const GrammarPartition &partition() const { return Part; }

private:
  HybridBackend(const Grammar &G, const DynCostTable *Dyn,
                const Options &Opts, GrammarPartition P, CompiledTables T)
      : OnDemandBackend(G, Dyn, Opts), Part(std::move(P)),
        Tables(std::move(T)), View(Tables.makePartitionView()) {
    A.seedStatesFrom(Tables.stateTable());
    A.attachOfflinePartition(&View);
  }

  GrammarPartition Part;
  CompiledTables Tables;
  /// Borrows Tables' storage; attached to (and outlives every use by) A,
  /// which this object owns. Never moved after construction.
  OfflinePartitionView View;
};

} // namespace odburg

#endif // ODBURG_SELECT_LABELERBACKEND_H

//===- pipeline/CompileSession.h - Batch compilation compatibility --------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch face of the compile pipeline. Historically the pipeline's
/// only entry point was CompileSession::compileFunctions(span, threads);
/// since the service redesign the session is a thin compatibility wrapper
/// over pipeline::CompileService — it owns the grammar, the dynamic-cost
/// hooks, and a shared LabelerBackend, plus one lazily created service
/// whose worker pool persists across batches. compileFunctions submits the
/// span through the service and waits for all futures, so its guarantees
/// are exactly the service's:
///
///   - results are indexed by corpus position, and the concatenated
///     assembly and total cost are byte-identical for any thread count;
///   - the backend stays warm across batches (the automaton's tables, the
///     per-worker labeling scratch, the DP label tables);
///   - per-function failures are captured per CompileResult and never
///     poison the rest of the batch.
///
/// New code should target CompileService directly: continuous submission
/// (submit -> std::future, ordered OnResult streaming, backpressure,
/// drain/shutdown) is the system's native operating mode, and the batch
/// call is just "submit everything, then wait". The wrapper stays for the
/// corpus-at-once drivers (odburg-run, benches, tests) where gathering
/// the whole corpus first is the point.
///
//===----------------------------------------------------------------------===//

#ifndef ODBURG_PIPELINE_COMPILESESSION_H
#define ODBURG_PIPELINE_COMPILESESSION_H

#include "pipeline/CompileService.h"

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace odburg {

namespace targets {
struct Target;
}

namespace pipeline {

/// Aggregates over one compileFunctions() batch. Phase times are summed
/// across workers, so on a multicore run they exceed WallNs — use them
/// for the relative label/reduce/emit split.
struct SessionStats {
  /// Labeling work counters summed over the batch.
  SelectionStats Label;
  std::uint64_t LabelNs = 0;
  std::uint64_t ReduceNs = 0;
  std::uint64_t EmitNs = 0;
  /// End-to-end batch wall time.
  std::uint64_t WallNs = 0;
  std::uint64_t Functions = 0;
  std::uint64_t Failed = 0;
  std::uint64_t Instructions = 0;
  std::uint64_t AsmBytes = 0;
  /// Summed cost of the successful functions' selected covers.
  Cost TotalCost = Cost::zero();
  /// Shared-state footprint of the backend at batch end (the automaton's
  /// state table and hashed transition cache, or the offline tables).
  /// Snapshot, not a sum, so memory benches stay honest.
  std::size_t BackendBytes = 0;

  void reset() { *this = SessionStats(); }

  /// Share of labeled nodes the hybrid backend resolved by direct
  /// offline-partition table indexing, in [0, 1]; 0 for every other
  /// backend (and for an empty batch).
  double offlineHitRate() const {
    return Label.NodesLabeled ? static_cast<double>(Label.OfflineHits) /
                                    static_cast<double>(Label.NodesLabeled)
                              : 0.0;
  }
};

/// Renders the label/reduce/emit share of a batch's summed phase time as
/// "62/25/13" (percent, rounded), or "-" when no time was recorded. The
/// common reporting format of odburg-run and bench_p2_pipeline.
std::string phaseSplit(const SessionStats &S);

/// A persistent compile session over one grammar: construct once, feed it
/// corpora forever. Not itself thread-safe — one batch at a time; the
/// concurrency lives in the underlying CompileService.
class CompileSession {
public:
  struct Options {
    /// Which labeling engine the session runs on.
    BackendKind Backend = BackendKind::OnDemand;
    /// The chosen backend's tunables (automaton options, offline
    /// generation bounds/threads), passed through verbatim to
    /// LabelerBackend::create — one source of truth, no per-field copies
    /// to drift out of sync.
    LabelerBackend::Options BackendOpts;
    /// Default worker count for compileFunctions (0 = hardware
    /// concurrency); per-call Threads overrides.
    unsigned Threads = 0;
  };

  /// \p Dyn may be null for grammars without dynamic costs; it must
  /// outlive the session, as must \p G.
  ///
  /// The constructors are for configurations that cannot fail — the
  /// default on-demand backend and the DP backend. Backend creation
  /// failure (offline tables over a dynamic-cost grammar, a state-limit
  /// blowout) aborts via reportFatalError; use create() where such
  /// configurations are reachable from user input.
  explicit CompileSession(const Grammar &G, const DynCostTable *Dyn = nullptr);
  CompileSession(const Grammar &G, const DynCostTable *Dyn, Options Opts);
  /// Convenience: a session over a target's full (dynamic-cost) grammar.
  explicit CompileSession(const targets::Target &T);

  ~CompileSession();

  /// Fallible construction: returns the backend's typed error (e.g.
  /// ErrorKind::UnsupportedDynamicCosts for offline x dynamic costs)
  /// instead of aborting.
  static Expected<std::unique_ptr<CompileSession>>
  create(const Grammar &G, const DynCostTable *Dyn, Options Opts);

  CompileSession(const CompileSession &) = delete;
  CompileSession &operator=(const CompileSession &) = delete;

  /// Compiles one function end-to-end on the calling thread (no worker
  /// pool involved; the session's serial scratch stays warm).
  CompileResult compileFunction(ir::IRFunction &F);

  /// Compiles a corpus with \p Threads workers (0 = the session default):
  /// submits every function through the persistent service and waits for
  /// all results. Results come back in corpus order regardless of
  /// scheduling, and the backend stays warm across calls. The service's
  /// worker pool is created on first use and resized when \p Threads
  /// changes between batches (per-worker scratch is kept either way).
  std::vector<CompileResult>
  compileFunctions(std::span<ir::IRFunction *const> Fns, unsigned Threads = 0,
                   SessionStats *Stats = nullptr);

  /// The batch's assembly in corpus order (failed functions contribute
  /// nothing). Byte-identical for any thread count.
  static std::string concatAsm(const std::vector<CompileResult> &Results);

  /// Summed cover cost of the successful results.
  static Cost totalCost(const std::vector<CompileResult> &Results);

  const Grammar &grammar() const { return G; }

  /// The labeling engine the session runs on.
  const LabelerBackend &backend() const { return *B; }

  /// The shared automaton; only valid when the session runs the (default)
  /// on-demand backend or the hybrid (whose automaton serves the dyn-cost
  /// remainder) — use backend() for engine-agnostic introspection.
  const OnDemandAutomaton &automaton() const {
    assert((B->kind() == BackendKind::OnDemand ||
            B->kind() == BackendKind::Hybrid) &&
           "automaton() on a session without an on-demand automaton");
    return static_cast<const OnDemandBackend &>(*B).automaton();
  }

private:
  CompileSession(const Grammar &G, const DynCostTable *Dyn, Options Opts,
                 std::unique_ptr<LabelerBackend> Backend);

  /// The service behind compileFunctions, created on first batch with the
  /// batch's worker count and resized on demand afterwards.
  CompileService &serviceFor(unsigned Threads);

  const Grammar &G;
  const DynCostTable *Dyn;
  Options Opts;
  std::unique_ptr<LabelerBackend> B;
  std::unique_ptr<CompileService> Svc;
  /// Scratch for the serial compileFunction() entry point.
  WorkerState Serial;
};

} // namespace pipeline
} // namespace odburg

#endif // ODBURG_PIPELINE_COMPILESESSION_H

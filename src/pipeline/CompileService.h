//===- pipeline/CompileService.h - Asynchronous streaming compilation -----===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pipeline's native operating mode: a persistent compile service.
/// The paper's amortization argument — a long-lived on-demand automaton
/// gets cheaper per function the longer it serves — is a *service* shape,
/// not a batch shape, so the public API is continuous submission:
///
///   - construct once per grammar: the service owns the labeling backend
///     (any BackendKind) and a pool of worker threads with persistent
///     per-worker scratch (reduction scratch, DP tables, emit buffer);
///   - submit(F) hands one function to the pool and returns a
///     std::future<CompileResult>; submitBatch() submits a span in order;
///   - results are *delivered* strictly in submission order: the optional
///     Options::OnResult sink fires for seq 0, 1, 2, … while later
///     submissions are still compiling (streaming), and each future
///     becomes ready only after its callback fired — so a ready future
///     implies every earlier submission has been delivered;
///   - the submission queue is bounded (Options::QueueCapacity counts
///     *undelivered* submissions): when a slow consumer or a deep backlog
///     hits the bound, submit() blocks — backpressure, not unbounded
///     memory;
///   - drain() waits until everything submitted is delivered; shutdown()
///     drains, stops the workers, and makes further submissions fail with
///     ErrorKind::ServiceShutdown.
///
/// Output is deterministic: each function's compilation depends only on
/// its own labels and virtual register numbering restarts per function,
/// so concatenating results in submission order (concatAsm) is
/// byte-identical to compiling the same sequence one function at a time
/// with compileFunctionWith — for any worker count, any backend.
///
/// The service is the pipeline's one compile entry point. A batch is
/// "submit everything, then wait" (compileAll); the serial path is
/// compileFunctionWith on the caller's thread against the same backend.
///
//===----------------------------------------------------------------------===//

#ifndef ODBURG_PIPELINE_COMPILESERVICE_H
#define ODBURG_PIPELINE_COMPILESERVICE_H

#include "select/LabelerBackend.h"
#include "select/Reducer.h"
#include "targets/AsmEmitter.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace odburg {
namespace pipeline {

/// The outcome of compiling one function end-to-end.
struct CompileResult {
  /// Empty on success; the reducer/emitter diagnostic otherwise.
  std::string Diagnostic;
  /// Fired rules in emission order and the selected cover's total cost.
  Selection Sel;
  /// Newline-terminated assembly text.
  std::string Asm;
  /// Emitted instruction count.
  unsigned Instructions = 0;
  /// Work counters for this function's labeling.
  SelectionStats Stats;
  /// Per-phase wall time, nanoseconds.
  std::uint64_t LabelNs = 0;
  std::uint64_t ReduceNs = 0;
  std::uint64_t EmitNs = 0;
  /// Machine-checkable failure category when !ok(): Generic for
  /// reducer/emitter diagnostics, DeadlineExceeded when the submission
  /// expired in the queue (Options::DeadlineNs) and was never compiled.
  ErrorKind Kind = ErrorKind::Generic;

  bool ok() const { return Diagnostic.empty(); }
};

/// The results' assembly in order (failed functions contribute nothing).
/// Byte-identical for any worker count and any backend.
std::string concatAsm(const std::vector<CompileResult> &Results);

/// Summed cover cost of the successful results.
Cost totalCost(const std::vector<CompileResult> &Results);

/// Per-worker reusable compile state, cache-line separated across a pool.
/// Owned by exactly one worker at a time; persistent for the owner's
/// lifetime so the labeler scratch (the DP backend's tables), the
/// reduction scratch and the emit buffer stay warm across functions and
/// batches.
struct alignas(64) WorkerState {
  LabelerScratch Labeler;
  ReductionScratch Reduction;
  /// Cleared per function and copied into the result at its exact size,
  /// so the match list stops regrowing once the worker is warm.
  Selection Sel;
  /// Cleared per function; its capacity follows the largest function the
  /// worker has emitted, so emitting allocates nothing once warm.
  targets::AsmBuffer Asm;
};

/// Compiles one function end-to-end — label, reduce, emit — against \p B
/// using \p WS, on the calling thread. What every service worker runs;
/// callers that want no pool call it directly with their own scratch.
void compileFunctionWith(const Grammar &G, const DynCostTable *Dyn,
                         LabelerBackend &B, ir::IRFunction &F, WorkerState &WS,
                         CompileResult &Out);

/// A coherent point-in-time view of a service's lifetime counters and
/// recent latency distribution — the numbers bench_p5_service measures,
/// exported as API so a metrics endpoint (odburg-serve's STATS request)
/// can serve them from a live process. Counters are lifetime totals;
/// percentiles cover a sliding window of the most recent deliveries.
struct ServiceStats {
  /// Total submissions accepted so far.
  std::size_t Submitted = 0;
  /// Total results delivered so far (ordered sink fired).
  std::size_t Delivered = 0;
  /// Undelivered submissions right now (== Submitted - Delivered; queued,
  /// compiling, or awaiting their in-order delivery slot).
  std::size_t QueueDepth = 0;
  /// Current worker-thread count.
  unsigned Workers = 0;
  /// Submissions that expired in the queue (Options::DeadlineNs) and were
  /// delivered as DeadlineExceeded failures instead of being compiled.
  std::size_t DeadlineExpired = 0;
  /// Latency samples backing the percentiles (bounded window).
  std::size_t LatencySamples = 0;
  /// Submit -> in-order delivery latency percentiles over the window, in
  /// microseconds (0 while no delivery has happened yet).
  double P50Us = 0.0;
  double P90Us = 0.0;
  double P99Us = 0.0;
  /// Lifetime labeling work counters, summed over every delivered result
  /// — the probe/hit evidence behind the rates below.
  SelectionStats Label;

  /// \name Hit rates, in [0, 1].
  /// Zero-guarded: a backend that took no probes reads as 0, never NaN.
  /// @{
  double cacheHitRate() const {
    return Label.CacheProbes ? static_cast<double>(Label.CacheHits) /
                                   static_cast<double>(Label.CacheProbes)
                             : 0.0;
  }
  /// Share of labeled nodes resolved by direct offline-table indexing:
  /// 1 on the offline backend, the static share on the hybrid, 0 else.
  double offlineHitRate() const {
    return Label.NodesLabeled ? static_cast<double>(Label.OfflineHits) /
                                    static_cast<double>(Label.NodesLabeled)
                              : 0.0;
  }
  /// @}
};

/// A persistent asynchronous compile service over one grammar. Submission
/// (submit/submitBatch/drain/shutdown) is thread-safe; many producers may
/// feed one service.
class CompileService {
public:
  /// The ordered streaming sink: fired once per submission, in submission
  /// order (\p Seq is 0-based), from a worker thread, while later
  /// submissions may still be compiling. At most one callback runs at a
  /// time and seq N fires before seq N+1, so the sink needs no locking of
  /// its own for per-stream state. Must not block on this service's own
  /// backpressure (submitting from the sink can deadlock a full queue).
  using ResultSink =
      std::function<void(std::size_t Seq, const CompileResult &R)>;

  /// Like ResultSink, with the submission's tag (see submit(F, Tag)). The
  /// multiplexing entry point: a server tags each submission with its
  /// connection id and routes the ordered deliveries back per client.
  using TaggedResultSink = std::function<void(
      std::size_t Seq, std::uint64_t Tag, const CompileResult &R)>;

  struct Options {
    /// Which labeling engine the service runs on (owned-backend creation).
    BackendKind Backend = BackendKind::OnDemand;
    /// The backend's tunables, passed through to LabelerBackend::create.
    LabelerBackend::Options BackendOpts;
    /// Worker pool size (0 = hardware concurrency).
    unsigned Workers = 0;
    /// Bound on undelivered submissions (queued + compiling + awaiting
    /// in-order delivery); submit() blocks at the bound. 0 = 4x workers,
    /// at least 16.
    std::size_t QueueCapacity = 0;
    /// Per-submission deadline from submit() until a worker dequeues the
    /// job, in nanoseconds; 0 = none. An expired job skips compilation
    /// entirely and is delivered in its ordered slot as a failure with
    /// Kind == ErrorKind::DeadlineExceeded — later submissions flow on
    /// undisturbed. Checked only at dequeue: a compile that has started
    /// always runs to completion, so results can never be torn.
    std::uint64_t DeadlineNs = 0;
    /// Ordered streaming sink; may be empty (futures only).
    ResultSink OnResult;
    /// Tag-aware ordered sink; fired after OnResult for each delivery.
    /// Same ordering and non-blocking contracts.
    TaggedResultSink OnResultTagged;
  };

  /// Builds a service owning its backend. Fails with the backend's typed
  /// error (e.g. ErrorKind::UnsupportedDynamicCosts for offline x dynamic
  /// costs). \p G and \p Dyn must outlive the service; \p Dyn may be null.
  static Expected<std::unique_ptr<CompileService>>
  create(const Grammar &G, const DynCostTable *Dyn, Options Opts);

  /// Builds a service around a ready-made backend — the entry point for
  /// deserialized offline tables (CompiledTables::load) or any custom
  /// LabelerBackend. Cannot fail.
  static std::unique_ptr<CompileService>
  create(const Grammar &G, const DynCostTable *Dyn, Options Opts,
         std::unique_ptr<LabelerBackend> Backend);

  /// Borrowed-backend service: \p B outlives the service and may also be
  /// used by the owner (compileFunctionWith on the caller's thread, or
  /// another service sharing the backend). Workers start immediately.
  CompileService(const Grammar &G, const DynCostTable *Dyn, LabelerBackend &B,
                 Options Opts);

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// Drains and stops the pool.
  ~CompileService();

  /// Submits one function; blocks while the service is at QueueCapacity
  /// undelivered submissions. The function must stay alive until its
  /// result is delivered. Fails with ErrorKind::ServiceShutdown once
  /// shutdown() has begun (including while blocked on backpressure).
  Expected<std::future<CompileResult>> submit(ir::IRFunction &F) {
    return submit(F, 0);
  }

  /// Tagged submission: \p Tag is opaque to the service and handed back to
  /// Options::OnResultTagged at this submission's delivery — the routing
  /// key for servers multiplexing many clients onto one service.
  Expected<std::future<CompileResult>> submit(ir::IRFunction &F,
                                              std::uint64_t Tag);

  /// Non-blocking admission variant of submit(): instead of waiting for a
  /// slot, fails immediately with ErrorKind::ResourceExhausted when
  /// undelivered submissions have reached \p MaxDepth (0 = the service's
  /// own capacity; larger values are clamped to it). The server's queue
  /// high-watermark shed path — reader threads must answer overload, not
  /// join it.
  Expected<std::future<CompileResult>>
  trySubmit(ir::IRFunction &F, std::uint64_t Tag, std::size_t MaxDepth = 0);

  /// Submits a span in order; the returned futures are in submission
  /// order. Stops at the first submission failure (shutdown mid-batch)
  /// and returns the typed error.
  Expected<std::vector<std::future<CompileResult>>>
  submitBatch(std::span<ir::IRFunction *const> Fns);

  /// Blocks until every accepted submission has been delivered (callback
  /// fired, future ready). The service stays open for more work.
  void drain();

  /// Stops accepting work, drains what was accepted, and joins the
  /// workers. Idempotent; safe to race with blocked submitters (they fail
  /// with ErrorKind::ServiceShutdown). The destructor calls it.
  void shutdown();

  /// True once shutdown() has begun.
  bool stopped() const;

  /// Grows or shrinks the worker pool; waits for the service to go idle
  /// first. Per-worker scratch is kept (grow-only), so shrinking and
  /// re-growing does not lose cache warmth. No-op after shutdown.
  void resizeWorkers(unsigned Workers);

  /// Total submissions accepted so far.
  std::size_t submitted() const;
  /// Total results delivered so far.
  std::size_t delivered() const;

  /// A coherent snapshot of the service's counters and recent-latency
  /// percentiles, taken under one lock acquisition — Submitted, Delivered
  /// and QueueDepth are mutually consistent (QueueDepth == Submitted -
  /// Delivered at the snapshot instant). Safe to call at any time,
  /// including during and after shutdown (the final counts stay
  /// readable). Latency is measured submit() -> the moment the result
  /// reaches its in-order delivery slot, over a bounded window of the
  /// most recent LatencyWindow deliveries.
  ServiceStats statsSnapshot() const;

  /// Latency samples retained for statsSnapshot percentiles.
  static constexpr std::size_t LatencyWindow = 4096;

  /// Current worker-thread count.
  unsigned workers() const;
  const Grammar &grammar() const { return G; }
  const LabelerBackend &backend() const { return *B; }
  /// Mutable backend access for runtime governors (memory pressure); the
  /// backend's own contract says which mutations are labeling-safe.
  LabelerBackend &backend() { return *B; }

private:
  struct Job {
    ir::IRFunction *F = nullptr;
    std::size_t Seq = 0;
    std::uint64_t Tag = 0;
    std::uint64_t SubmitNs = 0;
    std::promise<CompileResult> Promise;
  };
  /// A completed compilation parked until its turn in the delivery order.
  struct Parked {
    CompileResult R;
    std::uint64_t Tag = 0;
    std::uint64_t SubmitNs = 0;
    std::promise<CompileResult> Promise;
  };

  void start(unsigned Workers);
  void workerLoop(unsigned W);
  void deliver(Job J, CompileResult R);
  /// Joins all workers; Stopping must already be set (under M) by the
  /// caller. Resets Stopping so the pool can be restarted.
  void joinWorkers();

  const Grammar &G;
  const DynCostTable *Dyn;
  Options Opts;
  std::unique_ptr<LabelerBackend> OwnedBackend;
  LabelerBackend *B;
  std::size_t Capacity;

  /// One mutex rules submission, queueing, and delivery bookkeeping. The
  /// expensive work (compiling, the sink callback) runs outside it.
  mutable std::mutex M;
  std::condition_variable CanSubmit; ///< Signaled when a slot frees.
  std::condition_variable HasWork;   ///< Signaled on push / stop.
  std::condition_variable Idle;      ///< Signaled when Undelivered hits 0.
  std::deque<Job> Queue;
  std::map<std::size_t, Parked> ReorderBuffer;
  /// Circular window of recent submit->delivery latencies (ns), guarded
  /// by M; LatTotal counts lifetime samples.
  std::vector<std::uint64_t> LatRing;
  std::size_t LatTotal = 0;
  /// Lifetime labeling counters summed at delivery time, guarded by M.
  SelectionStats LabelTotals;
  /// Submissions delivered as queue-deadline failures, guarded by M.
  std::size_t DeadlineExpiredCount = 0;
  std::size_t NextSeq = 0;
  std::size_t NextDeliver = 0;
  std::size_t Undelivered = 0;
  bool Accepting = true;
  bool Stopping = false;  ///< Workers exit when set and the queue is empty.
  bool Flushing = false;  ///< A worker is inside the in-order delivery loop.
  bool ShutdownDone = false;     ///< A shutdown() call owns the teardown.
  bool ShutdownComplete = false; ///< That teardown has fully finished.

  /// Grow-only per-worker scratch; Pool[W] belongs to worker W.
  std::vector<std::unique_ptr<WorkerState>> Pool;
  std::vector<std::thread> Threads;
};

/// The batch call: submits \p Fns through \p S in order and waits for
/// every result. Results are in span order; per-function failures stay in
/// their CompileResult. Fails only with ErrorKind::ServiceShutdown.
Expected<std::vector<CompileResult>>
compileAll(CompileService &S, std::span<ir::IRFunction *const> Fns);

} // namespace pipeline
} // namespace odburg

#endif // ODBURG_PIPELINE_COMPILESERVICE_H

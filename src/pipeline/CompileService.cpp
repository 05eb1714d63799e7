//===- pipeline/CompileService.cpp - Asynchronous streaming compilation ---===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "pipeline/CompileService.h"

#include "support/FaultInjection.h"
#include "support/Timer.h"

#include <algorithm>

using namespace odburg;
using namespace odburg::pipeline;

void pipeline::compileFunctionWith(const Grammar &G, const DynCostTable *Dyn,
                                   LabelerBackend &B, ir::IRFunction &F,
                                   WorkerState &WS, CompileResult &Out) {
  SelectionStats FnStats;
  Stopwatch Phase;
  const Labeling &L = B.labelFunction(F, WS.Labeler, &FnStats);
  Out.LabelNs = Phase.elapsedNs();

  Phase.restart();
  Error RE = reduce(G, F, L, Dyn, WS.Reduction, WS.Sel);
  Out.ReduceNs = Phase.elapsedNs();
  Out.Stats = FnStats;
  if (RE) {
    Out.Diagnostic = RE.message();
    return;
  }
  // One allocation of the exact size; the worker keeps its selection.
  Out.Sel = WS.Sel;

  Phase.restart();
  WS.Asm.clear();
  Error E = targets::emitAsm(G, F, WS.Sel, WS.Asm);
  Out.EmitNs = Phase.elapsedNs();
  if (E) {
    Out.Diagnostic = E.message();
    return;
  }
  // One allocation of the exact size; the worker keeps the buffer.
  Out.Asm.assign(WS.Asm.Text);
  Out.Instructions = WS.Asm.Instructions;
}

std::string pipeline::concatAsm(const std::vector<CompileResult> &Results) {
  std::size_t Bytes = 0;
  for (const CompileResult &R : Results)
    Bytes += R.Asm.size();
  std::string Out;
  Out.reserve(Bytes);
  for (const CompileResult &R : Results)
    Out += R.Asm;
  return Out;
}

Cost pipeline::totalCost(const std::vector<CompileResult> &Results) {
  Cost Total = Cost::zero();
  for (const CompileResult &R : Results)
    if (R.ok())
      Total += R.Sel.TotalCost;
  return Total;
}

static unsigned resolveWorkers(unsigned N) {
  if (N == 0)
    N = std::thread::hardware_concurrency();
  return std::max(1u, N);
}

static std::size_t resolveCapacity(std::size_t Requested, unsigned Workers) {
  if (Requested)
    return Requested;
  return std::max<std::size_t>(static_cast<std::size_t>(Workers) * 4, 16);
}

Expected<std::unique_ptr<CompileService>>
CompileService::create(const Grammar &G, const DynCostTable *Dyn,
                       Options Opts) {
  Expected<std::unique_ptr<LabelerBackend>> Backend =
      LabelerBackend::create(Opts.Backend, G, Dyn, Opts.BackendOpts);
  if (!Backend)
    return Backend.takeError();
  return create(G, Dyn, std::move(Opts), std::move(*Backend));
}

std::unique_ptr<CompileService>
CompileService::create(const Grammar &G, const DynCostTable *Dyn, Options Opts,
                       std::unique_ptr<LabelerBackend> Backend) {
  LabelerBackend &B = *Backend;
  auto Svc =
      std::make_unique<CompileService>(G, Dyn, B, std::move(Opts));
  Svc->OwnedBackend = std::move(Backend);
  return Svc;
}

CompileService::CompileService(const Grammar &G, const DynCostTable *Dyn,
                               LabelerBackend &B, Options Opts)
    : G(G), Dyn(Dyn), Opts(std::move(Opts)), B(&B) {
  unsigned Workers = resolveWorkers(this->Opts.Workers);
  Capacity = resolveCapacity(this->Opts.QueueCapacity, Workers);
  start(Workers);
}

CompileService::~CompileService() { shutdown(); }

void CompileService::start(unsigned Workers) {
  // Only ever called with no workers running (construction, or after
  // joinWorkers()). The scratch pool must be fully grown before the
  // first thread spawns: workerLoop reads Pool[W] without the lock, so
  // no push_back may reallocate once a worker exists. Threads itself is
  // mutated under M because workers() reads it concurrently.
  std::lock_guard<std::mutex> L(M);
  while (Pool.size() < Workers)
    Pool.push_back(std::make_unique<WorkerState>());
  Threads.reserve(Workers);
  for (unsigned W = 0; W < Workers; ++W)
    Threads.emplace_back([this, W] { workerLoop(W); });
}

unsigned CompileService::workers() const {
  std::lock_guard<std::mutex> L(M);
  return static_cast<unsigned>(Threads.size());
}

std::size_t CompileService::submitted() const {
  std::lock_guard<std::mutex> L(M);
  return NextSeq;
}

std::size_t CompileService::delivered() const {
  std::lock_guard<std::mutex> L(M);
  return NextDeliver;
}

bool CompileService::stopped() const {
  std::lock_guard<std::mutex> L(M);
  return !Accepting;
}

Expected<std::future<CompileResult>>
CompileService::submit(ir::IRFunction &F, std::uint64_t Tag) {
  if (fault::shouldFail(fault::Site::ServiceSubmit))
    return Error::make(ErrorKind::ResourceExhausted,
                       "injected fault: submission rejected at service entry");
  std::future<CompileResult> Fut;
  {
    std::unique_lock<std::mutex> L(M);
    // Backpressure: wait for an undelivered-submission slot. Shutdown
    // releases blocked submitters with the typed error instead of letting
    // them hang on a queue that will never drain below the bound.
    CanSubmit.wait(L, [&] { return !Accepting || Undelivered < Capacity; });
    if (!Accepting)
      return Error::make(ErrorKind::ServiceShutdown,
                         "compile service is shut down; submission rejected");
    Job J;
    J.F = &F;
    J.Seq = NextSeq++;
    J.Tag = Tag;
    J.SubmitNs = nowNs();
    Fut = J.Promise.get_future();
    ++Undelivered;
    Queue.push_back(std::move(J));
  }
  HasWork.notify_one();
  return Fut;
}

Expected<std::future<CompileResult>>
CompileService::trySubmit(ir::IRFunction &F, std::uint64_t Tag,
                          std::size_t MaxDepth) {
  if (fault::shouldFail(fault::Site::ServiceSubmit))
    return Error::make(ErrorKind::ResourceExhausted,
                       "injected fault: submission rejected at service entry");
  std::size_t Bound = MaxDepth ? std::min(MaxDepth, Capacity) : Capacity;
  std::future<CompileResult> Fut;
  {
    std::unique_lock<std::mutex> L(M);
    if (!Accepting)
      return Error::make(ErrorKind::ServiceShutdown,
                         "compile service is shut down; submission rejected");
    if (Undelivered >= Bound)
      return Error::make(ErrorKind::ResourceExhausted,
                         "service queue at high-watermark (" +
                             std::to_string(Undelivered) + "/" +
                             std::to_string(Bound) + " undelivered)");
    Job J;
    J.F = &F;
    J.Seq = NextSeq++;
    J.Tag = Tag;
    J.SubmitNs = nowNs();
    Fut = J.Promise.get_future();
    ++Undelivered;
    Queue.push_back(std::move(J));
  }
  HasWork.notify_one();
  return Fut;
}

ServiceStats CompileService::statsSnapshot() const {
  ServiceStats S;
  std::vector<std::uint64_t> Window;
  {
    std::lock_guard<std::mutex> L(M);
    S.Submitted = NextSeq;
    S.Delivered = NextDeliver;
    S.QueueDepth = Undelivered;
    S.Workers = static_cast<unsigned>(Threads.size());
    S.DeadlineExpired = DeadlineExpiredCount;
    S.Label = LabelTotals;
    std::size_t Samples = std::min(LatTotal, LatRing.size());
    S.LatencySamples = Samples;
    Window.assign(LatRing.begin(),
                  LatRing.begin() + static_cast<std::ptrdiff_t>(Samples));
  }
  if (Window.empty())
    return S;
  // Sort outside the lock; the window is a private copy.
  std::sort(Window.begin(), Window.end());
  auto Pct = [&](double P) {
    std::size_t Idx = static_cast<std::size_t>(
        P * static_cast<double>(Window.size() - 1) + 0.5);
    return static_cast<double>(Window[Idx]) / 1e3;
  };
  S.P50Us = Pct(0.5);
  S.P90Us = Pct(0.9);
  S.P99Us = Pct(0.99);
  return S;
}

Expected<std::vector<std::future<CompileResult>>>
CompileService::submitBatch(std::span<ir::IRFunction *const> Fns) {
  std::vector<std::future<CompileResult>> Futures;
  Futures.reserve(Fns.size());
  for (ir::IRFunction *F : Fns) {
    Expected<std::future<CompileResult>> Fut = submit(*F);
    if (!Fut)
      return Fut.takeError();
    Futures.push_back(std::move(*Fut));
  }
  return Futures;
}

void CompileService::workerLoop(unsigned W) {
  WorkerState &WS = *Pool[W];
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> L(M);
      HasWork.wait(L, [&] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and fully drained.
      J = std::move(Queue.front());
      Queue.pop_front();
    }
    CompileResult R;
    // Deadline policy runs at dequeue, before any compile work: a job
    // that already overstayed its budget is answered typed instead of
    // compiled (its client stopped waiting), while a compile that has
    // started always runs to completion. The ordered slot is kept — the
    // expiry is delivered like any other per-function failure.
    if (Opts.DeadlineNs && nowNs() - J.SubmitNs > Opts.DeadlineNs) {
      R.Diagnostic =
          "deadline exceeded: queued " +
          std::to_string((nowNs() - J.SubmitNs) / 1000000) + " ms against a " +
          std::to_string(Opts.DeadlineNs / 1000000) + " ms budget";
      R.Kind = ErrorKind::DeadlineExceeded;
    } else {
      compileFunctionWith(G, Dyn, *B, *J.F, WS, R);
    }
    deliver(std::move(J), std::move(R));
  }
}

void CompileService::deliver(Job J, CompileResult R) {
  std::unique_lock<std::mutex> L(M);
  std::size_t Seq = J.Seq;
  ReorderBuffer.emplace(
      Seq, Parked{std::move(R), J.Tag, J.SubmitNs, std::move(J.Promise)});
  if (Flushing)
    return; // The active flusher will pick this up when its turn comes.
  Flushing = true;
  while (true) {
    auto It = ReorderBuffer.find(NextDeliver);
    if (It == ReorderBuffer.end())
      break;
    Parked P = std::move(It->second);
    ReorderBuffer.erase(It);
    std::size_t DeliverSeq = NextDeliver;
    // Latency sample: submission to reaching the in-order delivery slot.
    if (LatRing.size() < LatencyWindow)
      LatRing.resize(LatencyWindow);
    LatRing[LatTotal % LatencyWindow] = nowNs() - P.SubmitNs;
    ++LatTotal;
    LabelTotals += P.R.Stats;
    if (!P.R.ok() && P.R.Kind == ErrorKind::DeadlineExceeded)
      ++DeadlineExpiredCount;
    // The sink and the promise fulfil outside the lock: the callback may
    // be slow (it is the consumer), and other workers must keep parking
    // completions meanwhile. Order is safe — Flushing keeps this the only
    // delivering thread, and NextDeliver only advances here.
    L.unlock();
    if (Opts.OnResult)
      Opts.OnResult(DeliverSeq, P.R);
    if (Opts.OnResultTagged)
      Opts.OnResultTagged(DeliverSeq, P.Tag, P.R);
    P.Promise.set_value(std::move(P.R));
    L.lock();
    ++NextDeliver;
    --Undelivered;
    CanSubmit.notify_one();
  }
  Flushing = false;
  if (Undelivered == 0)
    Idle.notify_all();
}

void CompileService::drain() {
  std::unique_lock<std::mutex> L(M);
  Idle.wait(L, [&] { return Undelivered == 0; });
}

void CompileService::shutdown() {
  {
    std::unique_lock<std::mutex> L(M);
    Accepting = false;
    CanSubmit.notify_all();
    if (ShutdownDone) {
      // A concurrent caller owns the teardown; wait for it to finish so
      // every returning shutdown() means "the pool is gone" — a second
      // caller racing ahead into destruction would tear the mutex and
      // threads out from under the first.
      Idle.wait(L, [&] { return ShutdownComplete; });
      return;
    }
    ShutdownDone = true;
    Idle.wait(L, [&] { return Undelivered == 0; });
    Stopping = true;
  }
  joinWorkers();
  {
    std::lock_guard<std::mutex> L(M);
    ShutdownComplete = true;
  }
  Idle.notify_all();
}

void CompileService::joinWorkers() {
  // Joining must happen outside M (exiting workers take it), but the
  // vector itself is only touched under M — workers() may be probing
  // Threads.size() from another thread.
  std::vector<std::thread> ToJoin;
  {
    std::lock_guard<std::mutex> L(M);
    ToJoin.swap(Threads);
  }
  HasWork.notify_all();
  for (std::thread &T : ToJoin)
    T.join();
  std::lock_guard<std::mutex> L(M);
  Stopping = false;
}

void CompileService::resizeWorkers(unsigned Workers) {
  Workers = std::max(1u, Workers);
  {
    std::unique_lock<std::mutex> L(M);
    if (!Accepting)
      return;
    Idle.wait(L, [&] { return Undelivered == 0; });
    if (Workers == Threads.size())
      return;
    Stopping = true;
  }
  joinWorkers();
  start(Workers);
}

Expected<std::vector<CompileResult>>
pipeline::compileAll(CompileService &S, std::span<ir::IRFunction *const> Fns) {
  Expected<std::vector<std::future<CompileResult>>> Futures =
      S.submitBatch(Fns);
  if (!Futures)
    return Futures.takeError();
  std::vector<CompileResult> Results;
  Results.reserve(Futures->size());
  for (std::future<CompileResult> &F : *Futures)
    Results.push_back(F.get());
  return Results;
}

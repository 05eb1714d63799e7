//===- tests/pipeline/CompileServiceTest.cpp ---------------------------------===//
//
// Part of the odburg project.
//
// The asynchronous streaming submission API. Contracts under test: results
// are delivered strictly in submission order and *stream* — delivery
// begins while the input sequence is still being submitted (asserted via
// the backpressure bound, not just observed); a ready future implies its
// ordered callback already fired; the undelivered-submission count never
// exceeds the configured queue bound; drain() leaves the service usable;
// submissions after shutdown() fail with ErrorKind::ServiceShutdown; the
// streamed concatenation is byte-identical to a serial compile on every
// backend; and the whole submission surface survives contention from many
// producer threads (the TSan job runs this binary).
//
// The CompileSession suite below keeps the contracts of the batch wrapper
// the service replaced, stated against compileAll and compileFunctionWith:
// a batch equals the one-off label/reduce/emit calls; assembly and cost
// are identical for any worker count and backend; per-function failures
// do not poison a batch; and the shared backend stays warm across batches.
//
//===----------------------------------------------------------------------===//

#include "pipeline/CompileService.h"

#include "grammar/GrammarParser.h"
#include "select/DPLabeler.h"
#include "support/SmallVector.h"
#include "targets/Target.h"
#include "workload/Synthetic.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

using namespace odburg;
using namespace odburg::pipeline;
using namespace odburg::targets;
using namespace odburg::workload;

namespace {

std::vector<ir::IRFunction> makeCorpus(const Grammar &G, unsigned Count,
                                       unsigned Nodes = 600) {
  const Profile *P = findProfile("gzip-like");
  EXPECT_NE(P, nullptr);
  return cantFail(generateBatch(*P, G, Count, Nodes));
}

std::vector<ir::IRFunction *> pointers(std::vector<ir::IRFunction> &Fns) {
  std::vector<ir::IRFunction *> Ptrs;
  for (ir::IRFunction &F : Fns)
    Ptrs.push_back(&F);
  return Ptrs;
}

/// The serial reference: every function of \p Fns compiled in order on
/// this thread, with compileFunctionWith against one fresh backend.
std::vector<CompileResult>
compileSerially(const Grammar &G, const DynCostTable *Dyn,
                std::vector<ir::IRFunction> &Fns,
                BackendKind Kind = BackendKind::OnDemand) {
  std::unique_ptr<LabelerBackend> B =
      cantFail(LabelerBackend::create(Kind, G, Dyn));
  WorkerState WS;
  std::vector<CompileResult> Results(Fns.size());
  for (std::size_t I = 0; I < Fns.size(); ++I)
    compileFunctionWith(G, Dyn, *B, Fns[I], WS, Results[I]);
  return Results;
}

/// A service over \p G with \p Workers workers on a backend of \p Kind.
std::unique_ptr<CompileService>
makeService(const Grammar &G, const DynCostTable *Dyn, unsigned Workers,
            BackendKind Kind = BackendKind::OnDemand) {
  CompileService::Options Opts;
  Opts.Backend = Kind;
  Opts.Workers = Workers;
  return cantFail(CompileService::create(G, Dyn, std::move(Opts)));
}

/// Labeling counters summed over \p Results.
SelectionStats labelStats(const std::vector<CompileResult> &Results) {
  SelectionStats S;
  for (const CompileResult &R : Results)
    S += R.Stats;
  return S;
}

} // namespace

TEST(CompileService, StreamsInOrderBeforeInputIsExhausted) {
  auto T = cantFail(makeTarget("x86"));
  constexpr unsigned N = 32;
  constexpr std::size_t Capacity = 4;
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G, N);

  // Delivery-order log, written only from the (serialized, in-order)
  // sink. Submitted counts how many submit() calls completed when each
  // delivery fired — the streaming evidence.
  std::vector<std::size_t> SeqLog;
  std::vector<std::size_t> SubmittedAtDelivery;
  std::string Streamed;
  std::atomic<std::size_t> Submitted{0};

  CompileService::Options Opts;
  Opts.Workers = 2;
  Opts.QueueCapacity = Capacity;
  Opts.OnResult = [&](std::size_t Seq, const CompileResult &R) {
    SeqLog.push_back(Seq);
    SubmittedAtDelivery.push_back(Submitted.load());
    Streamed += R.Asm;
  };
  std::unique_ptr<CompileService> Svc =
      cantFail(CompileService::create(T->G, &T->Dyn, std::move(Opts)));

  for (ir::IRFunction &F : Corpus) {
    cantFail(Svc->submit(F));
    Submitted.fetch_add(1);
  }
  // The backpressure bound *guarantees* streaming: at most Capacity
  // submissions can be undelivered at once, so by the time the last
  // submit() returned, at least N - Capacity results were already out.
  EXPECT_GE(Svc->delivered(), N - Capacity);
  Svc->drain();
  EXPECT_EQ(Svc->delivered(), N);

  // Strict submission order, every seq exactly once.
  ASSERT_EQ(SeqLog.size(), N);
  for (std::size_t I = 0; I < N; ++I)
    EXPECT_EQ(SeqLog[I], I);
  // The streaming evidence, from the delivery side: the first result was
  // delivered while the input sequence was still being submitted.
  EXPECT_LT(SubmittedAtDelivery.front(), N);

  // Byte-identity with a serial compile of the same sequence.
  EXPECT_EQ(Streamed, concatAsm(compileSerially(T->G, &T->Dyn, Corpus)));
}

TEST(CompileService, FuturesCompleteOnlyAfterTheirOrderedCallback) {
  auto T = cantFail(makeTarget("vm64"));
  constexpr unsigned N = 16;
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G, N, 400);

  // Flags are written in the sink before the promise is fulfilled; the
  // promise/future pair provides the happens-before edge, so observing a
  // ready future with its flag clear would be a real ordering violation.
  std::vector<int> CallbackFired(N, 0);
  CompileService::Options Opts;
  Opts.Workers = 4;
  Opts.OnResult = [&](std::size_t Seq, const CompileResult &) {
    CallbackFired[Seq] = 1;
  };
  std::unique_ptr<CompileService> Svc =
      cantFail(CompileService::create(T->G, &T->Dyn, std::move(Opts)));

  std::vector<std::future<CompileResult>> Futures =
      cantFail(Svc->submitBatch(pointers(Corpus)));
  ASSERT_EQ(Futures.size(), N);
  // Wait back to front: even the last future's readiness must imply every
  // callback up to it fired (in-order delivery).
  CompileResult Last = Futures.back().get();
  EXPECT_TRUE(Last.ok()) << Last.Diagnostic;
  for (std::size_t I = 0; I < N; ++I)
    EXPECT_EQ(CallbackFired[I], 1) << "future " << (N - 1)
                                   << " ready before callback " << I;
  for (std::size_t I = 0; I + 1 < N; ++I) {
    CompileResult R = Futures[I].get();
    EXPECT_TRUE(R.ok()) << R.Diagnostic;
    EXPECT_FALSE(R.Asm.empty());
  }
}

TEST(CompileService, BackpressureNeverExceedsQueueCapacity) {
  auto T = cantFail(makeTarget("x86"));
  constexpr std::size_t Capacity = 3;
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G, 24, 300);

  CompileService *Raw = nullptr;
  std::size_t MaxInFlight = 0;
  CompileService::Options Opts;
  Opts.Workers = 2;
  Opts.QueueCapacity = Capacity;
  Opts.OnResult = [&](std::size_t, const CompileResult &) {
    // submitted()/delivered() take the service mutex; the sink runs
    // outside it, so the probe is deadlock-free. delivered() still counts
    // this in-flight delivery as pending.
    std::size_t InFlight = Raw->submitted() - Raw->delivered();
    MaxInFlight = std::max(MaxInFlight, InFlight);
  };
  std::unique_ptr<CompileService> Svc =
      cantFail(CompileService::create(T->G, &T->Dyn, std::move(Opts)));
  Raw = Svc.get();

  cantFail(Svc->submitBatch(pointers(Corpus)));
  Svc->drain();
  EXPECT_LE(MaxInFlight, Capacity);
  EXPECT_GE(MaxInFlight, 1u);
}

TEST(CompileService, DrainLeavesTheServiceOpen) {
  auto T = cantFail(makeTarget("vm64"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G, 8, 300);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  CompileService::Options Opts;
  Opts.Workers = 2;
  std::unique_ptr<CompileService> Svc =
      cantFail(CompileService::create(T->G, &T->Dyn, std::move(Opts)));

  std::vector<std::future<CompileResult>> First =
      cantFail(Svc->submitBatch(Ptrs));
  Svc->drain();
  EXPECT_EQ(Svc->delivered(), Corpus.size());
  EXPECT_FALSE(Svc->stopped());

  // A drained service keeps serving, and the warm backend reproduces the
  // first round byte for byte.
  std::vector<std::future<CompileResult>> Second =
      cantFail(Svc->submitBatch(Ptrs));
  Svc->drain();
  EXPECT_EQ(Svc->delivered(), 2 * Corpus.size());
  for (std::size_t I = 0; I < Ptrs.size(); ++I)
    EXPECT_EQ(First[I].get().Asm, Second[I].get().Asm);
}

TEST(CompileService, SubmitAfterShutdownFailsWithTypedError) {
  auto T = cantFail(makeTarget("vm64"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G, 4, 200);

  CompileService::Options Opts;
  Opts.Workers = 2;
  std::unique_ptr<CompileService> Svc =
      cantFail(CompileService::create(T->G, &T->Dyn, std::move(Opts)));
  std::vector<std::future<CompileResult>> Futures =
      cantFail(Svc->submitBatch(pointers(Corpus)));

  Svc->shutdown();
  EXPECT_TRUE(Svc->stopped());
  // Shutdown drained everything that was accepted before it.
  EXPECT_EQ(Svc->delivered(), Corpus.size());
  for (std::future<CompileResult> &F : Futures)
    EXPECT_TRUE(F.get().ok());

  Expected<std::future<CompileResult>> Rejected = Svc->submit(Corpus[0]);
  ASSERT_FALSE(static_cast<bool>(Rejected));
  EXPECT_EQ(Rejected.kind(), ErrorKind::ServiceShutdown);

  Expected<std::vector<std::future<CompileResult>>> RejectedBatch =
      Svc->submitBatch(pointers(Corpus));
  ASSERT_FALSE(static_cast<bool>(RejectedBatch));
  EXPECT_EQ(RejectedBatch.kind(), ErrorKind::ServiceShutdown);

  Expected<std::vector<CompileResult>> RejectedAll =
      compileAll(*Svc, pointers(Corpus));
  ASSERT_FALSE(static_cast<bool>(RejectedAll));
  EXPECT_EQ(RejectedAll.kind(), ErrorKind::ServiceShutdown);

  // Idempotent; drain on a stopped service returns immediately.
  Svc->shutdown();
  Svc->drain();
}

TEST(CompileService, StreamedOutputIsByteIdenticalAcrossBackends) {
  // The acceptance criterion as a unit test: the same fixed-cost sequence
  // streamed through all three backends yields one identical byte stream,
  // which also equals a serial compile's concatenation.
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->Fixed, 10, 400);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  std::string Reference =
      concatAsm(compileSerially(T->Fixed, nullptr, Corpus));
  ASSERT_FALSE(Reference.empty());

  for (BackendKind Kind :
       {BackendKind::DP, BackendKind::Offline, BackendKind::OnDemand}) {
    std::string Streamed;
    CompileService::Options Opts;
    Opts.Backend = Kind;
    Opts.Workers = 3;
    Opts.QueueCapacity = 4;
    Opts.OnResult = [&](std::size_t, const CompileResult &R) {
      Streamed += R.Asm;
    };
    std::unique_ptr<CompileService> Svc =
        cantFail(CompileService::create(T->Fixed, nullptr, std::move(Opts)));
    cantFail(Svc->submitBatch(Ptrs));
    Svc->drain();
    EXPECT_EQ(Streamed, Reference) << backendName(Kind);
  }
}

TEST(CompileService, ResizeKeepsWarmScratchAndOutput) {
  auto T = cantFail(makeTarget("vm64"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G, 8, 400);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  CompileService::Options Opts;
  Opts.Workers = 1;
  std::unique_ptr<CompileService> Svc =
      cantFail(CompileService::create(T->G, &T->Dyn, std::move(Opts)));
  std::vector<std::future<CompileResult>> First =
      cantFail(Svc->submitBatch(Ptrs));
  Svc->drain();
  EXPECT_EQ(Svc->workers(), 1u);

  Svc->resizeWorkers(4);
  EXPECT_EQ(Svc->workers(), 4u);
  std::vector<std::future<CompileResult>> Second =
      cantFail(Svc->submitBatch(Ptrs));
  Svc->drain();
  std::vector<std::string> SecondAsm;
  for (std::size_t I = 0; I < Ptrs.size(); ++I) {
    SecondAsm.push_back(Second[I].get().Asm);
    EXPECT_EQ(First[I].get().Asm, SecondAsm[I]);
  }

  Svc->resizeWorkers(2);
  EXPECT_EQ(Svc->workers(), 2u);
  std::vector<std::future<CompileResult>> Third =
      cantFail(Svc->submitBatch(Ptrs));
  Svc->drain();
  for (std::size_t I = 0; I < Ptrs.size(); ++I)
    EXPECT_EQ(Third[I].get().Asm, SecondAsm[I]);
}

TEST(CompileService, PerFunctionFailureDoesNotPoisonTheStream) {
  // A function whose root has no derivation yields a failed
  // CompileResult in its ordered slot; neighbors are unaffected — same
  // isolation contract as the batch pipeline, now per delivery.
  auto T = cantFail(makeTarget("vm64"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G, 3, 200);
  ir::IRFunction Broken;
  Broken.addRoot(Broken.makeLeaf(T->G.findOperator("Reg"), 7));

  std::vector<char> Ok;
  CompileService::Options Opts;
  Opts.Workers = 2;
  Opts.OnResult = [&](std::size_t, const CompileResult &R) {
    Ok.push_back(R.ok() ? 1 : 0);
  };
  std::unique_ptr<CompileService> Svc =
      cantFail(CompileService::create(T->G, &T->Dyn, std::move(Opts)));
  std::future<CompileResult> F0 = cantFail(Svc->submit(Corpus[0]));
  std::future<CompileResult> F1 = cantFail(Svc->submit(Broken));
  std::future<CompileResult> F2 = cantFail(Svc->submit(Corpus[1]));
  Svc->drain();

  EXPECT_TRUE(F0.get().ok());
  CompileResult RBroken = F1.get();
  EXPECT_FALSE(RBroken.ok());
  EXPECT_NE(RBroken.Diagnostic.find("no derivation"), std::string::npos);
  EXPECT_TRUE(RBroken.Asm.empty());
  EXPECT_TRUE(F2.get().ok());
  EXPECT_EQ(Ok, (std::vector<char>{1, 0, 1}));
}

TEST(CompileService, DeadlineExpiryOccupiesOrderedSlotWithoutStalling) {
  // Submissions that sit in the queue past Options::DeadlineNs must be
  // delivered as DeadlineExceeded failures *in their ordered slot* — the
  // stream neither stalls nor reorders around them, and fresh submissions
  // afterwards compile normally.
  auto T = cantFail(makeTarget("vm64"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G, 6, 200);

  std::promise<void> GatePromise;
  std::shared_future<void> Gate = GatePromise.get_future().share();
  std::atomic<bool> FirstDelivered{false};
  std::vector<std::size_t> SeqLog;
  CompileService::Options Opts;
  Opts.Workers = 1;
  Opts.QueueCapacity = 8;
  // Generous against sanitizer slowdowns: an idle worker dequeues in
  // microseconds, so job 0 cannot plausibly expire; the gated jobs wait
  // far past it, so they deterministically do.
  Opts.DeadlineNs = 100'000'000; // 100ms.
  Opts.OnResult = [&](std::size_t Seq, const CompileResult &) {
    SeqLog.push_back(Seq);
    if (Seq == 0) {
      FirstDelivered.store(true);
      Gate.wait(); // Park the pipeline with jobs 1..4 stuck in the queue.
    }
  };
  std::unique_ptr<CompileService> Svc =
      cantFail(CompileService::create(T->G, &T->Dyn, std::move(Opts)));

  std::future<CompileResult> F0 = cantFail(Svc->submit(Corpus[0]));
  while (!FirstDelivered.load())
    std::this_thread::yield();
  std::vector<std::future<CompileResult>> Stuck;
  for (unsigned I = 1; I <= 4; ++I)
    Stuck.push_back(cantFail(Svc->submit(Corpus[I])));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  GatePromise.set_value();
  Svc->drain();

  EXPECT_TRUE(F0.get().ok());
  for (std::future<CompileResult> &F : Stuck) {
    CompileResult R = F.get();
    EXPECT_FALSE(R.ok());
    EXPECT_EQ(R.Kind, ErrorKind::DeadlineExceeded);
    EXPECT_TRUE(R.Asm.empty());
    EXPECT_NE(R.Diagnostic.find("deadline"), std::string::npos)
        << R.Diagnostic;
  }
  EXPECT_EQ(Svc->statsSnapshot().DeadlineExpired, 4u);

  // The service is still healthy: a fresh submission with an idle worker
  // compiles well inside the deadline.
  std::future<CompileResult> F5 = cantFail(Svc->submit(Corpus[5]));
  Svc->drain();
  EXPECT_TRUE(F5.get().ok());

  // Ordered slots throughout, expirations included.
  ASSERT_EQ(SeqLog.size(), 6u);
  for (std::size_t I = 0; I < SeqLog.size(); ++I)
    EXPECT_EQ(SeqLog[I], I);
}

TEST(CompileService, TrySubmitShedsAtTheHighWatermark) {
  // The server's reader-side shed path: trySubmit() must answer
  // ResourceExhausted immediately once undelivered submissions reach the
  // watermark — never block — and accepted work is unaffected.
  auto T = cantFail(makeTarget("vm64"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G, 4, 200);

  std::promise<void> GatePromise;
  std::shared_future<void> Gate = GatePromise.get_future().share();
  std::atomic<bool> FirstDelivered{false};
  CompileService::Options Opts;
  Opts.Workers = 1;
  Opts.QueueCapacity = 8;
  Opts.OnResult = [&](std::size_t Seq, const CompileResult &) {
    if (Seq == 0) {
      FirstDelivered.store(true);
      Gate.wait();
    }
  };
  std::unique_ptr<CompileService> Svc =
      cantFail(CompileService::create(T->G, &T->Dyn, std::move(Opts)));

  std::future<CompileResult> F0 =
      cantFail(Svc->trySubmit(Corpus[0], /*Tag=*/7, /*MaxDepth=*/2));
  while (!FirstDelivered.load())
    std::this_thread::yield();
  // Job 0 is undelivered (parked in the sink); one more fits under the
  // watermark of 2, the next must shed.
  std::future<CompileResult> F1 =
      cantFail(Svc->trySubmit(Corpus[1], 7, 2));
  Expected<std::future<CompileResult>> Shed = Svc->trySubmit(Corpus[2], 7, 2);
  ASSERT_FALSE(static_cast<bool>(Shed));
  EXPECT_EQ(Shed.kind(), ErrorKind::ResourceExhausted);

  GatePromise.set_value();
  Svc->drain();
  EXPECT_TRUE(F0.get().ok());
  EXPECT_TRUE(F1.get().ok());
  // After the drain the depth is back to zero and trySubmit admits again.
  std::future<CompileResult> F3 = cantFail(Svc->trySubmit(Corpus[3], 7, 2));
  Svc->drain();
  EXPECT_TRUE(F3.get().ok());
}

TEST(CompileService, BoundedQueueSurvivesManyProducers) {
  // The TSan stress: several producer threads hammer one service through
  // a small queue while two more threads drain() concurrently. Every
  // producer checks its own futures against a serial reference compile,
  // and the sink checks global delivery order.
  auto T = cantFail(makeTarget("x86"));
  constexpr unsigned Producers = 4;
  constexpr unsigned PerProducer = 12;
  std::vector<std::vector<ir::IRFunction>> Corpora;
  for (unsigned P = 0; P < Producers; ++P)
    Corpora.push_back(makeCorpus(T->G, PerProducer, 200 + 100 * P));

  // Serial reference: one function at a time on this thread.
  std::vector<std::vector<std::string>> Reference(Producers);
  for (unsigned P = 0; P < Producers; ++P)
    for (const CompileResult &R : compileSerially(T->G, &T->Dyn, Corpora[P]))
      Reference[P].push_back(R.Asm);

  std::atomic<std::size_t> NextExpected{0};
  std::atomic<bool> OrderViolated{false};
  CompileService::Options Opts;
  Opts.Workers = 4;
  Opts.QueueCapacity = 5;
  Opts.OnResult = [&](std::size_t Seq, const CompileResult &) {
    if (Seq != NextExpected.fetch_add(1))
      OrderViolated = true;
  };
  std::unique_ptr<CompileService> Svc =
      cantFail(CompileService::create(T->G, &T->Dyn, std::move(Opts)));

  std::atomic<unsigned> Mismatches{0};
  std::vector<std::thread> Threads;
  for (unsigned P = 0; P < Producers; ++P)
    Threads.emplace_back([&, P] {
      std::vector<std::future<CompileResult>> Futures;
      for (ir::IRFunction &F : Corpora[P])
        Futures.push_back(cantFail(Svc->submit(F)));
      for (unsigned I = 0; I < Futures.size(); ++I)
        if (Futures[I].get().Asm != Reference[P][I])
          Mismatches.fetch_add(1);
    });
  // Concurrent drains must be safe no matter where submission stands.
  for (unsigned D = 0; D < 2; ++D)
    Threads.emplace_back([&] { Svc->drain(); });
  for (std::thread &Th : Threads)
    Th.join();
  Svc->drain();

  EXPECT_EQ(Svc->delivered(), Producers * PerProducer);
  EXPECT_FALSE(OrderViolated.load());
  EXPECT_EQ(Mismatches.load(), 0u);
  EXPECT_EQ(NextExpected.load(), Producers * PerProducer);
}

TEST(CompileService, ShutdownRacesBlockedSubmitters) {
  // Producers block on a tiny queue; shutdown() must release them with
  // the typed error instead of deadlocking, while everything accepted
  // before the cut still compiles and delivers.
  auto T = cantFail(makeTarget("vm64"));
  constexpr unsigned Producers = 3;
  constexpr unsigned PerProducer = 10;
  std::vector<std::vector<ir::IRFunction>> Corpora;
  for (unsigned P = 0; P < Producers; ++P)
    Corpora.push_back(makeCorpus(T->G, PerProducer, 300));

  CompileService::Options Opts;
  Opts.Workers = 1;
  Opts.QueueCapacity = 2;
  std::unique_ptr<CompileService> Svc =
      cantFail(CompileService::create(T->G, &T->Dyn, std::move(Opts)));

  std::atomic<unsigned> Accepted{0}, Rejected{0};
  std::vector<std::thread> Threads;
  for (unsigned P = 0; P < Producers; ++P)
    Threads.emplace_back([&, P] {
      for (ir::IRFunction &F : Corpora[P]) {
        Expected<std::future<CompileResult>> Fut = Svc->submit(F);
        if (!Fut) {
          EXPECT_EQ(Fut.kind(), ErrorKind::ServiceShutdown);
          Rejected.fetch_add(1);
        } else {
          Accepted.fetch_add(1);
        }
      }
    });
  // Let some work through, then cut the service while producers are
  // likely parked on backpressure. Two racing shutdown() calls: both
  // must return only once the pool is fully torn down.
  while (Svc->delivered() < 3)
    std::this_thread::yield();
  std::thread OtherShutdown([&] { Svc->shutdown(); });
  Svc->shutdown();
  OtherShutdown.join();
  EXPECT_EQ(Svc->workers(), 0u);
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_TRUE(Svc->stopped());
  EXPECT_EQ(Svc->delivered(), Svc->submitted());
  EXPECT_EQ(Accepted.load() + Rejected.load(), Producers * PerProducer);
  EXPECT_GE(Accepted.load(), 3u);
}

TEST(CompileService, StatsSnapshotIsMonotonicAndConsistentUnderLoad) {
  // statsSnapshot() taken from a hostile sampler thread while 4 producers
  // hammer the service: every snapshot must be internally consistent
  // (QueueDepth == Submitted - Delivered, within the queue bound) and the
  // counter sequence must be monotone across snapshots — a torn read of
  // the counters would show up as either.
  auto T = cantFail(makeTarget("x86"));
  constexpr unsigned Producers = 4;
  constexpr unsigned PerProducer = 24;
  constexpr std::size_t Capacity = 6;
  std::vector<std::vector<ir::IRFunction>> Corpora;
  for (unsigned P = 0; P < Producers; ++P)
    Corpora.push_back(makeCorpus(T->G, PerProducer, 300));

  CompileService::Options Opts;
  Opts.Workers = 2;
  Opts.QueueCapacity = Capacity;
  std::unique_ptr<CompileService> Svc =
      cantFail(CompileService::create(T->G, &T->Dyn, std::move(Opts)));

  std::atomic<bool> Done{false};
  std::atomic<unsigned> Violations{0};
  std::thread Sampler([&] {
    std::size_t LastSubmitted = 0, LastDelivered = 0;
    while (!Done.load()) {
      ServiceStats S = Svc->statsSnapshot();
      if (S.Delivered > S.Submitted)
        Violations.fetch_add(1);
      if (S.QueueDepth != S.Submitted - S.Delivered)
        Violations.fetch_add(1);
      if (S.QueueDepth > Capacity)
        Violations.fetch_add(1);
      if (S.Submitted < LastSubmitted || S.Delivered < LastDelivered)
        Violations.fetch_add(1);
      if (S.P50Us > S.P90Us || S.P90Us > S.P99Us)
        Violations.fetch_add(1);
      if (S.Workers != 2)
        Violations.fetch_add(1);
      LastSubmitted = S.Submitted;
      LastDelivered = S.Delivered;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> Threads;
  for (unsigned P = 0; P < Producers; ++P)
    Threads.emplace_back([&, P] {
      for (ir::IRFunction &F : Corpora[P])
        cantFail(Svc->submit(F));
    });
  for (std::thread &Th : Threads)
    Th.join();
  Svc->drain();
  Done.store(true);
  Sampler.join();

  EXPECT_EQ(Violations.load(), 0u);
  ServiceStats Final = Svc->statsSnapshot();
  EXPECT_EQ(Final.Submitted, Producers * PerProducer);
  EXPECT_EQ(Final.Delivered, Producers * PerProducer);
  EXPECT_EQ(Final.QueueDepth, 0u);
  EXPECT_EQ(Final.LatencySamples,
            std::min<std::size_t>(Producers * PerProducer,
                                  CompileService::LatencyWindow));
  // Real work happened, so the window has real latencies in order.
  EXPECT_GT(Final.P50Us, 0.0);
  EXPECT_LE(Final.P50Us, Final.P90Us);
  EXPECT_LE(Final.P90Us, Final.P99Us);
}

TEST(CompileService, StatsSnapshotDuringAndAfterShutdownStaysCoherent) {
  // A sampler racing shutdown() must keep seeing coherent snapshots, and
  // the final counts stay readable from the stopped service.
  auto T = cantFail(makeTarget("vm64"));
  constexpr unsigned N = 20;
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G, N, 300);

  CompileService::Options Opts;
  Opts.Workers = 2;
  Opts.QueueCapacity = 4;
  std::unique_ptr<CompileService> Svc =
      cantFail(CompileService::create(T->G, &T->Dyn, std::move(Opts)));

  std::atomic<bool> Done{false};
  std::atomic<unsigned> Violations{0};
  std::thread Sampler([&] {
    while (!Done.load()) {
      ServiceStats S = Svc->statsSnapshot();
      if (S.Delivered > S.Submitted ||
          S.QueueDepth != S.Submitted - S.Delivered)
        Violations.fetch_add(1);
    }
  });

  std::size_t Accepted = 0;
  std::thread Producer([&] {
    for (ir::IRFunction &F : Corpus) {
      Expected<std::future<CompileResult>> Fut = Svc->submit(F);
      if (!Fut)
        break;
      ++Accepted;
    }
  });
  while (Svc->delivered() < 2)
    std::this_thread::yield();
  Svc->shutdown();
  Producer.join();
  Done.store(true);
  Sampler.join();

  EXPECT_EQ(Violations.load(), 0u);
  ServiceStats Final = Svc->statsSnapshot();
  EXPECT_EQ(Final.Submitted, Accepted);
  EXPECT_EQ(Final.Delivered, Accepted);
  EXPECT_EQ(Final.QueueDepth, 0u);
  EXPECT_EQ(Final.Workers, 0u);
  EXPECT_EQ(Final.LatencySamples, std::min<std::size_t>(
                                      Accepted, CompileService::LatencyWindow));
}

TEST(CompileService, TaggedSinkRoutesEverySubmissionInOrder) {
  // The multiplexing contract under the socket server: OnResultTagged
  // hands back each submission's tag in global submission order, so a
  // server keying tags by connection can rely on per-tag delivery order.
  auto T = cantFail(makeTarget("x86"));
  constexpr unsigned Producers = 3;
  constexpr unsigned PerProducer = 12;
  std::vector<std::vector<ir::IRFunction>> Corpora;
  for (unsigned P = 0; P < Producers; ++P)
    Corpora.push_back(makeCorpus(T->G, PerProducer, 200));

  std::vector<std::vector<std::size_t>> SeqsByTag(Producers);
  CompileService::Options Opts;
  Opts.Workers = 3;
  Opts.QueueCapacity = 4;
  Opts.OnResultTagged = [&](std::size_t Seq, std::uint64_t Tag,
                            const CompileResult &R) {
    // Serialized by the delivery contract (one callback at a time, in
    // seq order), so plain vectors are safe here.
    ASSERT_LT(Tag, Producers);
    ASSERT_TRUE(R.ok());
    SeqsByTag[Tag].push_back(Seq);
  };
  std::unique_ptr<CompileService> Svc =
      cantFail(CompileService::create(T->G, &T->Dyn, std::move(Opts)));

  std::vector<std::thread> Threads;
  for (unsigned P = 0; P < Producers; ++P)
    Threads.emplace_back([&, P] {
      for (ir::IRFunction &F : Corpora[P])
        cantFail(Svc->submit(F, P));
    });
  for (std::thread &Th : Threads)
    Th.join();
  Svc->drain();

  // Every tag saw exactly its own submissions, each tag's seqs ascend
  // (per-tag delivery order == per-tag submission order), and the union
  // covers every seq exactly once.
  std::vector<bool> Seen(Producers * PerProducer, false);
  for (unsigned P = 0; P < Producers; ++P) {
    EXPECT_EQ(SeqsByTag[P].size(), PerProducer);
    for (std::size_t I = 1; I < SeqsByTag[P].size(); ++I)
      EXPECT_LT(SeqsByTag[P][I - 1], SeqsByTag[P][I]);
    for (std::size_t Seq : SeqsByTag[P]) {
      ASSERT_LT(Seq, Seen.size());
      EXPECT_FALSE(Seen[Seq]);
      Seen[Seq] = true;
    }
  }
}

//===----------------------------------------------------------------------===//
// Batch contracts: compileAll and compileFunctionWith
//===----------------------------------------------------------------------===//

namespace {

/// A mixed corpus: three profiles with different operator mixes.
std::vector<ir::IRFunction> makeMixedCorpus(const Grammar &G) {
  std::vector<ir::IRFunction> Corpus;
  for (const char *Name : {"gzip-like", "mcf-like", "art-like"}) {
    const Profile *P = findProfile(Name);
    EXPECT_NE(P, nullptr);
    std::vector<ir::IRFunction> Fns =
        cantFail(generateBatch(*P, G, /*Count=*/4, /*TargetNodes=*/1200));
    for (ir::IRFunction &F : Fns)
      Corpus.push_back(std::move(F));
  }
  return Corpus;
}

} // namespace

TEST(CompileSession, MatchesOneOffPipelinePerFunction) {
  // A service batch must reproduce exactly what the ad-hoc DP pipeline
  // produces (PipelineTest establishes DP == automaton; this establishes
  // batch == one-off, including the buffer-backed emit path).
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeMixedCorpus(T->G);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  std::vector<CompileResult> Results =
      cantFail(compileAll(*makeService(T->G, &T->Dyn, 1), Ptrs));
  ASSERT_EQ(Results.size(), Corpus.size());

  for (std::size_t I = 0; I < Corpus.size(); ++I) {
    ASSERT_TRUE(Results[I].ok()) << Results[I].Diagnostic;
    DPLabeling Ref = DPLabeler(T->G, &T->Dyn).label(Corpus[I]);
    Selection SRef = cantFail(reduce(T->G, Corpus[I], Ref, &T->Dyn));
    AsmBuffer AsmRef;
    cantFail(emitAsm(T->G, Corpus[I], SRef, AsmRef));
    EXPECT_EQ(Results[I].Asm, AsmRef.Text);
    EXPECT_EQ(Results[I].Instructions, AsmRef.Instructions);
    EXPECT_EQ(Results[I].Sel.TotalCost, SRef.TotalCost);
  }
}

TEST(CompileSession, AssemblyAndCostInvariantUnderThreadCount) {
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeMixedCorpus(T->G);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  std::string RefAsm;
  Cost RefCost = Cost::zero();
  for (unsigned Workers : {1u, 2u, 4u, 8u}) {
    std::vector<CompileResult> Results =
        cantFail(compileAll(*makeService(T->G, &T->Dyn, Workers), Ptrs));
    for (const CompileResult &R : Results)
      ASSERT_TRUE(R.ok()) << R.Diagnostic;
    std::string Asm = concatAsm(Results);
    Cost Total = totalCost(Results);
    EXPECT_FALSE(Asm.empty());
    if (Workers == 1) {
      RefAsm = std::move(Asm);
      RefCost = Total;
    } else {
      EXPECT_EQ(Asm, RefAsm) << Workers
                             << " workers diverged from serial assembly";
      EXPECT_EQ(Total, RefCost);
    }
  }
}

TEST(CompileSession, WarmSecondBatchComputesNoStates) {
  auto T = cantFail(makeTarget("vm64"));
  std::vector<ir::IRFunction> Corpus = makeMixedCorpus(T->G);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  std::unique_ptr<CompileService> Svc = makeService(T->G, &T->Dyn, 4);
  std::vector<CompileResult> First = cantFail(compileAll(*Svc, Ptrs));
  ASSERT_EQ(First.size(), Corpus.size());
  for (const CompileResult &R : First)
    ASSERT_TRUE(R.ok()) << R.Diagnostic;
  SelectionStats Cold = labelStats(First);
  EXPECT_GT(Cold.StatesComputed, 0u);
  // The service's lifetime counters are the per-result sums.
  EXPECT_EQ(Svc->statsSnapshot().Label.StatesComputed, Cold.StatesComputed);
  EXPECT_EQ(Svc->statsSnapshot().Label.NodesLabeled, Cold.NodesLabeled);

  std::vector<CompileResult> Second = cantFail(compileAll(*Svc, Ptrs));
  SelectionStats Warm = labelStats(Second);
  EXPECT_EQ(Warm.StatesComputed, 0u);
  EXPECT_EQ(Warm.CacheHits, Warm.CacheProbes);
  EXPECT_EQ(Svc->statsSnapshot().Label.StatesComputed, Cold.StatesComputed);
  // Warm output is identical to cold output.
  EXPECT_EQ(concatAsm(First), concatAsm(Second));
  EXPECT_EQ(totalCost(First), totalCost(Second));
  for (std::size_t I = 0; I < First.size(); ++I)
    EXPECT_EQ(First[I].Instructions, Second[I].Instructions);
}

TEST(CompileSession, SerialEntryPointMatchesBatch) {
  // compileFunctionWith on the caller's thread is what every service
  // worker runs; called directly, one function at a time, it must give
  // the service's bytes and costs.
  auto T = cantFail(makeTarget("mips"));
  std::vector<ir::IRFunction> Corpus = makeMixedCorpus(T->G);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  std::vector<CompileResult> Results =
      cantFail(compileAll(*makeService(T->G, &T->Dyn, 2), Ptrs));

  std::vector<CompileResult> OneByOne =
      compileSerially(T->G, &T->Dyn, Corpus);
  ASSERT_EQ(OneByOne.size(), Results.size());
  for (std::size_t I = 0; I < Corpus.size(); ++I) {
    ASSERT_TRUE(OneByOne[I].ok()) << OneByOne[I].Diagnostic;
    EXPECT_EQ(OneByOne[I].Asm, Results[I].Asm);
    EXPECT_EQ(OneByOne[I].Sel.TotalCost, Results[I].Sel.TotalCost);
  }
}

TEST(CompileSession, BackendOptionSelectsEngineAndPreservesOutput) {
  // The same fixed-cost corpus through all three Options::Backend values:
  // identical assembly and cost, correct backend plumbed, engine-typical
  // stats (DP checks rules, offline only indexes, on-demand probes).
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeMixedCorpus(T->Fixed);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  std::string RefAsm;
  Cost RefCost = Cost::zero();
  bool HaveRef = false;
  for (BackendKind Kind :
       {BackendKind::DP, BackendKind::Offline, BackendKind::OnDemand}) {
    CompileService::Options Opts;
    Opts.Backend = Kind;
    Opts.Workers = 2;
    auto Svc = CompileService::create(T->Fixed, nullptr, std::move(Opts));
    ASSERT_TRUE(static_cast<bool>(Svc)) << Svc.message();
    EXPECT_EQ((*Svc)->backend().kind(), Kind);

    std::vector<CompileResult> Results = cantFail(compileAll(**Svc, Ptrs));
    for (const CompileResult &R : Results)
      ASSERT_TRUE(R.ok()) << R.Diagnostic;
    std::string Asm = concatAsm(Results);
    Cost Total = totalCost(Results);
    if (!HaveRef) {
      HaveRef = true;
      RefAsm = std::move(Asm);
      RefCost = Total;
    } else {
      EXPECT_EQ(Asm, RefAsm) << backendName(Kind);
      EXPECT_EQ(Total, RefCost) << backendName(Kind);
    }

    SelectionStats Stats = (*Svc)->statsSnapshot().Label;
    switch (Kind) {
    case BackendKind::DP:
      EXPECT_GT(Stats.RuleChecks, 0u);
      EXPECT_EQ(Stats.OfflineHits, 0u);
      break;
    case BackendKind::Offline:
      // Every node is one direct table index.
      EXPECT_GT(Stats.NodesLabeled, 0u);
      EXPECT_EQ(Stats.OfflineHits, Stats.NodesLabeled);
      EXPECT_EQ(Stats.CacheProbes, 0u);
      break;
    case BackendKind::OnDemand:
      EXPECT_GT(Stats.CacheProbes, 0u);
      break;
    case BackendKind::Hybrid: // Not in this loop.
      break;
    }
  }
}

TEST(CompileSession, CreateReportsTypedErrorForOfflineDynamicCosts) {
  auto T = cantFail(makeTarget("x86"));
  CompileService::Options Opts;
  Opts.Backend = BackendKind::Offline;
  auto Svc = CompileService::create(T->G, &T->Dyn, std::move(Opts));
  ASSERT_FALSE(static_cast<bool>(Svc));
  EXPECT_EQ(Svc.kind(), ErrorKind::UnsupportedDynamicCosts);
}

TEST(CompileSession, L1HitRateSurfacesInSessionStats) {
  // The per-worker L1 is gone; a batch's hit accounting is the shared
  // cache's and the hybrid's offline index's. A warm batch over two
  // workers resolves every probe from the cache, each node is counted
  // exactly once, and the offline share surfaces in the service's
  // offlineHitRate().
  auto T = cantFail(makeTarget("vm64"));
  std::vector<ir::IRFunction> Corpus = makeMixedCorpus(T->G);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  for (BackendKind K : {BackendKind::OnDemand, BackendKind::Hybrid}) {
    std::unique_ptr<CompileService> Svc = makeService(T->G, &T->Dyn, 2, K);
    SelectionStats Cold = labelStats(cantFail(compileAll(*Svc, Ptrs)));
    SelectionStats Warm = labelStats(cantFail(compileAll(*Svc, Ptrs)));
    EXPECT_GT(Warm.NodesLabeled, 0u) << backendName(K);
    EXPECT_EQ(Warm.CacheProbes, Warm.NodesLabeled - Warm.OfflineHits)
        << backendName(K);
    EXPECT_EQ(Warm.CacheHits, Warm.CacheProbes) << backendName(K);
    EXPECT_EQ(Warm.StatesComputed, 0u) << backendName(K);
    EXPECT_EQ(Warm.L1Probes + Warm.DenseProbes, 0u) << backendName(K);

    ServiceStats Life = Svc->statsSnapshot();
    EXPECT_EQ(Life.Label.NodesLabeled, Cold.NodesLabeled + Warm.NodesLabeled)
        << backendName(K);
    EXPECT_EQ(Life.Label.OfflineHits, Cold.OfflineHits + Warm.OfflineHits)
        << backendName(K);
    EXPECT_GT(Life.cacheHitRate(), 0.0) << backendName(K);
    if (K == BackendKind::Hybrid) {
      EXPECT_GT(Life.offlineHitRate(), 0.0);
      EXPECT_LT(Life.offlineHitRate(), 1.0); // Dyn-cost operators probe.
    } else {
      EXPECT_EQ(Life.offlineHitRate(), 0.0);
    }
  }
}

TEST(CompileSession, HitRateAccessorsAreZeroNotNaNOnZeroProbes) {
  // A default-constructed stats object has zero nodes and probes; the
  // rate accessors must read 0, not NaN (division by zero would poison
  // every JSON report and comparison downstream).
  ServiceStats Empty;
  EXPECT_EQ(Empty.offlineHitRate(), 0.0);
  EXPECT_EQ(Empty.cacheHitRate(), 0.0);

  // A DP-backend batch resolves nothing from tables or caches: same
  // invariant on a stats object that went through a real compile.
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeMixedCorpus(T->G);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);
  std::unique_ptr<CompileService> Svc =
      makeService(T->G, &T->Dyn, 2, BackendKind::DP);
  cantFail(compileAll(*Svc, Ptrs));
  ServiceStats Stats = Svc->statsSnapshot();
  EXPECT_GT(Stats.Label.NodesLabeled, 0u);
  EXPECT_EQ(Stats.Label.CacheProbes, 0u);
  EXPECT_EQ(Stats.Label.OfflineHits, 0u);
  EXPECT_EQ(Stats.offlineHitRate(), 0.0);
  EXPECT_EQ(Stats.cacheHitRate(), 0.0);
}

namespace {

/// A tiny grammar with emit templates, plus a corpus where the middle
/// function's root has no derivation from the start nonterminal.
const char *brokenBatchGrammar() {
  return R"(
    %start stmt
    stmt: Store(reg, reg) (1) "st %2, %1";
    reg:  Reg (0) "=r%c";
  )";
}

void buildStore(ir::IRFunction &F, const Grammar &G, int Dst, int Src) {
  SmallVector<ir::Node *, 2> C{F.makeLeaf(G.findOperator("Reg"), Dst),
                               F.makeLeaf(G.findOperator("Reg"), Src)};
  F.addRoot(F.makeNode(G.findOperator("Store"), C));
}

} // namespace

TEST(CompileSession, PerFunctionErrorDoesNotPoisonBatch) {
  Grammar G = cantFail(parseGrammar(brokenBatchGrammar()));
  std::vector<ir::IRFunction> Corpus(3);
  buildStore(Corpus[0], G, 1, 2);
  // A bare Reg root: reg is derivable but stmt is not.
  Corpus[1].addRoot(Corpus[1].makeLeaf(G.findOperator("Reg"), 7));
  buildStore(Corpus[2], G, 3, 4);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  std::unique_ptr<LabelerBackend> B =
      cantFail(LabelerBackend::create(BackendKind::OnDemand, G));
  for (unsigned Workers : {1u, 2u}) {
    // Both passes share one backend, so the second runs warm.
    CompileService::Options Opts;
    Opts.Workers = Workers;
    CompileService Svc(G, nullptr, *B, std::move(Opts));
    std::vector<CompileResult> Results = cantFail(compileAll(Svc, Ptrs));
    ASSERT_EQ(Results.size(), 3u);
    EXPECT_TRUE(Results[0].ok());
    EXPECT_EQ(Results[0].Asm, "st r2, r1\n");
    ASSERT_FALSE(Results[1].ok());
    EXPECT_NE(Results[1].Diagnostic.find("no derivation"), std::string::npos);
    EXPECT_TRUE(Results[1].Asm.empty());
    EXPECT_EQ(Results[1].Instructions, 0u);
    // The failure is isolated: the function after it compiles normally,
    // including when the same worker scratch handled the failed one.
    EXPECT_TRUE(Results[2].ok());
    EXPECT_EQ(Results[2].Asm, "st r4, r3\n");
    EXPECT_EQ(Results[0].Instructions + Results[2].Instructions, 2u);
    // Failed functions contribute nothing to the batch totals.
    EXPECT_EQ(concatAsm(Results), "st r2, r1\nst r4, r3\n");
    EXPECT_EQ(totalCost(Results), Results[0].Sel.TotalCost +
                                      Results[2].Sel.TotalCost);
  }
}

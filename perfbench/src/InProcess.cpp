//===- perfbench/src/InProcess.cpp - warm_x86 and cold_synth --------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two in-process workloads: a closed loop in which one producer
/// resubmits the seeded corpus to a 4-worker on-demand CompileService,
/// with the benchmark's own OnResult sink checking every result against
/// the dp reference. Each run times set-up (grammar build + service
/// creation, several times), the first pass on fresh backends (several
/// times), then steady passes on the warm service for the rest of the run.
///
//===----------------------------------------------------------------------===//

#include "Host.h"
#include "Stats.h"
#include "Workloads.h"

#include "pipeline/CompileService.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>

using namespace odburg;
using namespace odburg::pipeline;

namespace perfbench {

namespace {

constexpr unsigned Workers = 4;
/// Undelivered submissions the service admits. The corpus must be longer
/// than this so a function is never resubmitted while still in flight
/// (labeling writes node labels).
constexpr std::size_t QueueCapacity = 16;
/// Submit timestamps are kept in a ring this deep, far beyond the queue.
constexpr std::size_t Ring = 4096;

/// The benchmark's ordered result sink and the per-submission state it
/// reads. The service fires the sink for one submission at a time, in
/// order, so its members need no lock; the producer writes a slot before
/// submitting and the service's own hand-off orders that before the sink.
struct Sink {
  const std::vector<Reference> *Refs = nullptr;
  bool CheckRules = false;
  std::size_t N = 0;
  std::uint64_t Failed = 0;
  std::uint64_t Delivered = 0;
  /// Delivery time of each pass's last function.
  std::vector<std::uint64_t> PassEnds;
  /// Submit -> sink latencies, microseconds, of the current slice.
  std::vector<double> LatencyUs;
  /// Set while a traced phase runs; null otherwise.
  Trace *T = nullptr;
  std::uint64_t SubmitNs[Ring] = {};
  std::uint32_t RequestSpan[Ring] = {};

  void operator()(std::size_t Seq, const CompileResult &R) {
    std::uint64_t Now = nowNs();
    std::size_t Slot = Seq % Ring;
    std::uint32_t Span = 0;
    if (T) {
      T->close(RequestSpan[Slot], Now);
      Span = T->open("sink", Seq, RequestSpan[Slot], Now);
    }
    std::size_t I = Seq % N;
    if (!R.ok() || !matches((*Refs)[I], R.Asm, &R.Sel, CheckRules))
      ++Failed;
    ++Delivered;
    LatencyUs.push_back(static_cast<double>(Now - SubmitNs[Slot]) / 1e3);
    if (I == N - 1)
      PassEnds.push_back(Now);
    if (T)
      T->close(Span, nowNs());
  }
};

std::unique_ptr<CompileService> makeService(const GrammarBundle &G,
                                            Sink &S) {
  CompileService::Options O;
  O.Backend = BackendKind::OnDemand;
  O.Workers = Workers;
  O.QueueCapacity = QueueCapacity;
  O.OnResult = [&S](std::size_t Seq, const CompileResult &R) { S(Seq, R); };
  Expected<std::unique_ptr<CompileService>> Svc =
      CompileService::create(G.grammar(), G.dyn(), std::move(O));
  return Svc ? std::move(*Svc) : nullptr;
}

/// Submits \p F as submission \p Seq, stamping its submit time (and, in a
/// traced phase, its request and submit spans).
bool submitOne(CompileService &Svc, Sink &S, ir::IRFunction &F,
               std::uint64_t Seq) {
  std::size_t Slot = Seq % Ring;
  std::uint64_t T0 = nowNs();
  S.SubmitNs[Slot] = T0;
  S.RequestSpan[Slot] = 0;
  if (S.T)
    S.RequestSpan[Slot] = S.T->open("request", Seq, 0, T0);
  Expected<std::future<CompileResult>> Fut = Svc.submit(F);
  if (S.T)
    S.T->record("submit", Seq, S.RequestSpan[Slot], T0, nowNs());
  return static_cast<bool>(Fut); // False only after shutdown.
}

/// Closed loop: submits whole corpus passes until \p Until (nowNs) has
/// passed and at least \p MinPasses were submitted, then drains. Returns
/// the submissions.
std::uint64_t runPasses(CompileService &Svc, Sink &S, Inputs &In,
                        std::uint64_t Until, unsigned MinPasses) {
  std::uint64_t Seq = Svc.submitted();
  std::uint64_t Start = Seq;
  for (unsigned Pass = 0; Pass < MinPasses || nowNs() < Until; ++Pass)
    for (ir::IRFunction &F : In.Corpus)
      if (submitOne(Svc, S, F, Seq))
        ++Seq;
  Svc.drain();
  return Seq - Start;
}

/// Pass windows (seconds) recorded since \p FirstEnd, skipping the first
/// (ramp-up after a drain).
std::vector<double> passSeconds(const Sink &S, std::size_t FirstEnd) {
  std::vector<double> Out;
  for (std::size_t I = FirstEnd + 2; I < S.PassEnds.size(); ++I)
    Out.push_back(static_cast<double>(S.PassEnds[I] - S.PassEnds[I - 1]) /
                  1e9);
  return Out;
}

SelectionStats minus(SelectionStats A, const SelectionStats &B) {
  A.NodesLabeled -= B.NodesLabeled;
  A.L1Probes -= B.L1Probes;
  A.L1Hits -= B.L1Hits;
  A.DenseProbes -= B.DenseProbes;
  A.DenseHits -= B.DenseHits;
  A.CacheProbes -= B.CacheProbes;
  A.CacheHits -= B.CacheHits;
  return A;
}

/// One stretch of steady closed-loop passes on the warm service.
struct Slice {
  std::vector<double> PassSeconds;
  /// Submit -> result latencies in the closed loop, microseconds.
  std::vector<double> LatencyUs;
  double WallSeconds = 0;
  double CpuSeconds = 0;
  /// Share of the machine's processor time the hypervisor stole.
  double Steal = 0;
  SelectionStats Label;
  std::uint64_t Submitted = 0;
};

Slice runSlice(CompileService &Svc, Sink &S, Inputs &In, double Seconds) {
  Slice Out;
  std::size_t FirstEnd = S.PassEnds.size();
  S.LatencyUs.clear();
  SelectionStats Before = Svc.statsSnapshot().Label;
  double Cpu0 = cpuSeconds(), Steal0 = stealSeconds();
  std::uint64_t Wall0 = nowNs();
  // At least three passes, and one latency window.
  const std::size_t N = In.Corpus.size();
  Out.Submitted = runPasses(
      Svc, S, In, Wall0 + static_cast<std::uint64_t>(Seconds * 1e9),
      static_cast<unsigned>(std::max<std::size_t>(3, (WindowSamples + N - 1) / N)));
  Out.WallSeconds = static_cast<double>(nowNs() - Wall0) / 1e9;
  Out.CpuSeconds = cpuSeconds() - Cpu0;
  Out.Label = minus(Svc.statsSnapshot().Label, Before);
  Out.PassSeconds = passSeconds(S, FirstEnd);
  Out.LatencyUs = std::move(S.LatencyUs);
  S.LatencyUs.clear();
  Out.Steal = (stealSeconds() - Steal0) / (Out.WallSeconds * processorCount());
  return Out;
}

/// Steady metrics over slices spread across the run. Only the half of the
/// slices with the least hypervisor steal is reported, so a burst of
/// contention from the shared machine moves a slice, not the result:
/// throughput is the median pass window over them, p50 the median of the
/// slices' windowed p50s, p99 the lower quartile of their windowed p99s
/// (README.md says which tail regressions that cannot see; the pooled p99
/// of the traced slices is pipeline.delivery_us_p99).
struct Steady {
  double KNodesPerSec = 0;
  double FnPerSec = 0;
  double P50Us = 0;
  double P99Us = 0;
  double CoresBusy = 0;
  std::size_t Windows = 0;
  std::size_t Samples = 0;
  /// Median steal share over all slices.
  double Steal = 0;
  SelectionStats Label;
  /// Submissions over all slices, and over the reported ones.
  std::uint64_t Submitted = 0;
  std::uint64_t KeptSubmitted = 0;
  /// Empty when every slice had enough samples.
  std::string Invalid;
};

Steady summarize(const std::vector<Slice> &All, const Inputs &In) {
  Steady R;
  std::vector<double> Windows, P50s, P99s, Steal;
  double Cpu = 0, Wall = 0;
  for (const Slice &Sl : All) {
    R.Submitted += Sl.Submitted;
    Steal.push_back(Sl.Steal);
  }
  R.Steal = median(Steal);
  for (std::size_t I : cleanestHalf(Steal)) {
    const Slice &Sl = All[I];
    Windows.insert(Windows.end(), Sl.PassSeconds.begin(), Sl.PassSeconds.end());
    std::vector<double> W50 = windowPercentiles(Sl.LatencyUs, 50);
    std::vector<double> W99 = windowPercentiles(Sl.LatencyUs, 99);
    if (W99.empty())
      R.Invalid = "a slice with " + std::to_string(Sl.LatencyUs.size()) +
                  " latency samples";
    P50s.insert(P50s.end(), W50.begin(), W50.end());
    P99s.insert(P99s.end(), W99.begin(), W99.end());
    R.Samples += Sl.LatencyUs.size();
    Cpu += Sl.CpuSeconds;
    Wall += Sl.WallSeconds;
    R.Label += Sl.Label;
    R.KeptSubmitted += Sl.Submitted;
  }
  R.Windows = Windows.size();
  if (R.Windows < 3)
    R.Invalid = std::to_string(R.Windows) + " pass windows";
  double Med = median(Windows);
  R.KNodesPerSec = static_cast<double>(In.Nodes) / Med / 1e3;
  R.FnPerSec = static_cast<double>(In.Corpus.size()) / Med;
  R.P50Us = median(P50s);
  R.P99Us = lowerQuartile(P99s);
  R.CoresBusy = Cpu / Wall;
  return R;
}

void printSample(const char *Name, const std::vector<double> &V) {
  std::printf("%s samples:", Name);
  for (double X : V)
    std::printf(" %.4g", X);
  std::printf("\n");
}

double rate(std::uint64_t Hits, std::uint64_t Probes) {
  return Probes ? static_cast<double>(Hits) / static_cast<double>(Probes)
                : 0.0;
}

} // namespace

RunResult runInProcess(const RunConfig &C) {
  RunResult R;
  double Load0 = loadAverage1();
  Expected<Inputs> InE = makeInputs(C.Kind, C.Seed, C.Smoke);
  if (!InE) {
    R.Error = "input generation failed: " + InE.message();
    return R;
  }
  Inputs &In = *InE;
  if (In.Corpus.size() <= 2 * QueueCapacity) {
    R.Error = "corpus shorter than twice the service queue";
    return R;
  }
  const bool CheckRules = C.Kind == WorkloadKind::ColdSynth;

  // Untimed: the independent dp reference, and the oracle on the sample
  // for both dp and the backend under test.
  Expected<std::vector<Reference>> RefsE =
      computeReference(In.G.grammar(), In.G.dyn(), In.Corpus);
  Expected<std::vector<Reference>> SampleRefs =
      computeReference(In.G.grammar(), In.G.dyn(), In.OracleSample);
  if (!RefsE || !SampleRefs) {
    R.Error = "dp reference failed: " +
              (RefsE ? SampleRefs.message() : RefsE.message());
    return R;
  }
  const std::vector<Reference> &Refs = *RefsE;
  {
    std::vector<Cost> DpCosts, OdCosts;
    Sink Probe;
    Probe.Refs = &*SampleRefs;
    Probe.N = In.OracleSample.size();
    std::unique_ptr<CompileService> Svc = makeService(In.G, Probe);
    for (std::size_t I = 0; I < In.OracleSample.size(); ++I) {
      DpCosts.push_back((*SampleRefs)[I].Total);
      Expected<std::future<CompileResult>> Fut =
          Svc ? Svc->submit(In.OracleSample[I])
              : Expected<std::future<CompileResult>>(Error::make("no service"));
      OdCosts.push_back(Fut ? Fut->get().Sel.TotalCost : Cost::infinity());
    }
    unsigned Bad =
        oracleMismatches(In.G.grammar(), In.G.dyn(), In.OracleSample, DpCosts) +
        oracleMismatches(In.G.grammar(), In.G.dyn(), In.OracleSample, OdCosts);
    if (Bad || Probe.Failed) {
      std::fprintf(stderr, "oracle check: %u cost mismatches, %llu results "
                           "differ from dp\n",
                   Bad, static_cast<unsigned long long>(Probe.Failed));
      R.Correct = false;
    }
  }
  recordWork(R, In, Refs);

  Sink S;
  S.Refs = &Refs;
  S.CheckRules = CheckRules;
  S.N = In.Corpus.size();
  std::uint64_t Attempted = 0;
  std::vector<double> Setup, First, FirstSteal;
  // A fresh service's first pass: submit the corpus once and drain.
  auto FirstPass = [&]() -> std::unique_ptr<CompileService> {
    double Steal0 = stealSeconds();
    std::uint64_t T0 = nowNs();
    std::unique_ptr<CompileService> Svc = makeService(In.G, S);
    if (!Svc)
      return nullptr;
    Attempted += runPasses(*Svc, S, In, 0, 1);
    double Wall = static_cast<double>(nowNs() - T0) / 1e9;
    First.push_back(Wall);
    FirstSteal.push_back((stealSeconds() - Steal0) /
                         (Wall * processorCount()));
    return Svc;
  };

  // Rounds spread every sample over the whole run: set-ups (grammar build
  // + service creation), a steady slice on the warm service (plus a traced
  // one in a traced run), and a first pass on a fresh backend.
  const unsigned Rounds = C.Smoke ? 2 : 12;
  const double SliceSeconds = C.Seconds / Rounds / (C.Trace ? 2 : 1);
  Trace T(C.Trace, 1u << 22);
  std::vector<Slice> Untraced, Traced;
  std::unique_ptr<CompileService> Svc = FirstPass();
  if (!Svc) {
    R.Error = "service creation failed";
    return R;
  }
  First.clear();
  FirstSteal.clear();
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    for (unsigned I = 0; I < 3; ++I) {
      Sink Idle;
      std::uint64_t T0 = nowNs();
      Expected<GrammarBundle> G = buildGrammar(C.Kind, C.Seed);
      std::unique_ptr<CompileService> Fresh = G ? makeService(*G, Idle) : nullptr;
      std::uint64_t T1 = nowNs();
      if (!Fresh) {
        R.Error = "service creation failed";
        return R;
      }
      Setup.push_back(static_cast<double>(T1 - T0) / 1e9);
    }
    Untraced.push_back(runSlice(*Svc, S, In, SliceSeconds));
    if (C.Trace) {
      S.T = &T;
      Traced.push_back(runSlice(*Svc, S, In, SliceSeconds));
      S.T = nullptr;
    }
    for (unsigned I = 0; I < 2; ++I)
      if (!FirstPass()) {
        R.Error = "service creation failed";
        return R;
      }
  }
  Steady U = summarize(Untraced, In);
  Attempted += U.Submitted;
  if (!U.Invalid.empty()) {
    R.Error = "too few samples: " + U.Invalid;
    return R;
  }
  printSample("setup_s", Setup);
  printSample("first_pass_s", First);
  printSample("first_pass steal", FirstSteal);
  std::vector<double> SliceSteal;
  for (const Slice &Sl : Untraced)
    SliceSteal.push_back(Sl.Steal);
  printSample("slice steal", SliceSteal);
  std::printf("steady: %zu pass windows, %zu latency samples in the "
              "cleanest %zu of %u slices\n",
              U.Windows, U.Samples, cleanestHalf(SliceSteal).size(), Rounds);
  std::vector<double> CleanFirst;
  for (std::size_t I : cleanestHalf(FirstSteal))
    CleanFirst.push_back(First[I]);

  R.set("setup_s", median(Setup), "s");
  R.set("first_pass_s", median(CleanFirst), "s");
  R.set("throughput_knodes_s", U.KNodesPerSec, "knodes/s");
  R.set("latency_ms_p50", U.P50Us / 1e3, "ms");
  R.set("latency_ms_p99", U.P99Us / 1e3, "ms");
  R.set("max_rate_fn_s", U.FnPerSec, "fn/s");

  if (C.Trace) {
    Steady Tr = summarize(Traced, In);
    Attempted += Tr.Submitted;
    std::vector<double> Delivery;
    for (std::size_t I = 0, E = T.size(); I < E; ++I)
      if (std::string_view(T.span(I + 1).Name) == "request")
        Delivery.push_back(
            static_cast<double>(T.span(I + 1).EndNs - T.span(I + 1).StartNs) /
            1e3);
    Percentile D50 = percentile(Delivery, 50), D99 = percentile(Delivery, 99);
    Decomposition D = decompose(In, Refs, CheckRules, T, C.Smoke ? 1 : 2);
    S.Failed += D.Failed;
    Attempted += In.Corpus.size() * (C.Smoke ? 2 : 3);

    R.set("core.label_ns_per_node", D.LabelNsPerNode, "ns");
    R.set("core.first_label_ns_per_node", D.FirstLabelNsPerNode, "ns");
    R.set("core.states", Svc->backend().numStates(), "count");
    R.set("core.backend_mb",
          static_cast<double>(Svc->backend().memoryBytes()) / 1e6, "MB");
    double Passes = static_cast<double>(U.KeptSubmitted) /
                    static_cast<double>(In.Corpus.size());
    R.set("core.l1_hit_rate", rate(U.Label.L1Hits, U.Label.L1Probes), "fraction");
    R.set("core.l1_probes", static_cast<double>(U.Label.L1Probes) / Passes, "count");
    R.set("core.dense_hit_rate", rate(U.Label.DenseHits, U.Label.DenseProbes),
          "fraction");
    R.set("core.dense_probes", static_cast<double>(U.Label.DenseProbes) / Passes,
          "count");
    R.set("core.l2_hit_rate", rate(U.Label.CacheHits, U.Label.CacheProbes),
          "fraction");
    R.set("core.l2_probes", static_cast<double>(U.Label.CacheProbes) / Passes,
          "count");
    R.set("select.reduce_ns_per_node", D.ReduceNsPerNode, "ns");
    R.set("targets.emit_ns_per_byte", D.EmitNsPerByte, "ns");
    R.set("targets.emit_share", D.EmitShare, "fraction");
    R.set("ir.parse_ns_per_byte", D.ParseNsPerByte, "ns");
    R.set("pipeline.delivery_us_p50", D50.Value, "us");
    R.set("pipeline.delivery_us_p99", D99.Value, "us");
    R.set("pipeline.delivery_samples", static_cast<double>(D99.Samples), "count");
    R.set("pipeline.cores_busy", U.CoresBusy, "cores");
    R.set("host.steal_frac", U.Steal, "fraction");
    R.set("pipeline.parallel_efficiency",
          U.KNodesPerSec * 1e3 / (Workers * D.NodesPerSec), "fraction");
    R.set("trace.overhead_frac",
          (U.KNodesPerSec - Tr.KNodesPerSec) / U.KNodesPerSec, "fraction");
    R.set("trace.spans", static_cast<double>(T.size()), "count");
    std::printf("trace: %zu spans, %zu dropped\n", T.size(), T.dropped());
    if (T.dropped()) {
      R.Error = "trace buffer full: " + std::to_string(T.dropped()) +
                " spans dropped";
      return R;
    }
    if (!D99.Valid) {
      R.Error = "too few delivery samples: " + describe(D99, 99);
      return R;
    }
    T.writeCsv(C.WorkDir + "/spans-" + workloadName(C.Kind) + "-" +
               std::to_string(C.Seed) + ".csv");
  }
  Svc.reset();
  R.set("peak_rss_mb", peakRssMb(), "MB");
  R.set("host.load1_before", Load0, "load");
  R.set("host.load1_after", loadAverage1(), "load");
  R.Attempted = Attempted;
  R.Failed = S.Failed;
  R.set("ok_frac",
        static_cast<double>(Attempted - S.Failed) / static_cast<double>(Attempted),
        "fraction");
  if (S.Failed)
    R.Correct = false;
  return R;
}

} // namespace perfbench

//===- bench/bench_p5_service.cpp - Table P5 ---------------------------------===//
//
// Part of the odburg project.
//
// P5: the streaming submission API vs. equivalent batch calls. The same
// corpus goes through (a) compileAll — submit the whole span, wait for
// every future — and (b) a persistent CompileService fed one submit() at a
// time with ordered streaming delivery, at 1/2/4/8 workers, cold (fresh
// automaton) and warm (steady state). Throughput must match batch within
// the submission overhead, and the service additionally reports what
// batch cannot: per-result latency percentiles (submit -> in-order
// delivery, including any backpressure wait at the default queue bound).
// Both modes must produce byte-identical assembly — the service streams
// it, the batch concatenates it, the bytes are the same.
//
// Note: on a single-core container all thread counts degenerate to ~1x
// and latency percentiles mostly measure queueing depth; the correctness
// checks are unaffected.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "pipeline/CompileService.h"

#include <algorithm>
#include <thread>

using namespace odburg;
using namespace odburg::bench;
using namespace odburg::pipeline;
using namespace odburg::workload;

namespace {

double percentile(std::vector<std::uint64_t> &SortedNs, double P) {
  if (SortedNs.empty())
    return 0.0;
  std::size_t Idx = static_cast<std::size_t>(
      P * static_cast<double>(SortedNs.size() - 1) + 0.5);
  return static_cast<double>(SortedNs[Idx]) / 1e3; // us
}

} // namespace

int main(int Argc, char **Argv) {
  parseBenchArgs(Argc, Argv);
  auto T = cantFail(targets::makeTarget("x86"));

  std::vector<ir::IRFunction> Corpus;
  for (const char *Name : {"gzip-like", "gcc-like", "twolf-like"}) {
    const Profile *P = findProfile(Name);
    std::vector<ir::IRFunction> Fns = cantFail(
        generateBatch(*P, T->G, /*Count=*/smokeScaled(24, 4),
                      /*TargetNodes=*/smokeScaled(3000, 400)));
    for (ir::IRFunction &F : Fns)
      Corpus.push_back(std::move(F));
  }
  std::vector<ir::IRFunction *> Ptrs;
  std::uint64_t TotalNodes = 0;
  for (ir::IRFunction &F : Corpus) {
    Ptrs.push_back(&F);
    TotalNodes += F.size();
  }
  const std::size_t N = Corpus.size();
  const unsigned WarmReps = smokeScaled(3, 1);

  TablePrinter Table(formatf(
      "P5. Streaming service vs. batch calls (x86; %llu nodes in %zu "
      "functions; hw threads: %u)",
      static_cast<unsigned long long>(TotalNodes), N,
      std::thread::hardware_concurrency()));
  Table.setHeader({"mode", "thr", "cold ms", "warm ms", "warm fn/s",
                   "p50 us", "p90 us", "p99 us", "asm"});

  std::string Reference;
  bool AllIdentical = true;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    // ---- Batch mode: submit everything, then wait. ----
    std::string BatchAsm;
    std::uint64_t BatchColdNs = 0, BatchWarmNs = ~0ULL;
    {
      CompileService::Options Opts;
      Opts.Workers = Threads;
      auto Svc = cantFail(CompileService::create(T->G, &T->Dyn, Opts));
      std::vector<CompileResult> Results = timedPass(*Svc, Ptrs, BatchColdNs);
      for (unsigned R = 0; R < WarmReps; ++R) {
        std::uint64_t PassNs = 0;
        Results = timedPass(*Svc, Ptrs, PassNs);
        BatchWarmNs = std::min(BatchWarmNs, PassNs);
      }
      for (const CompileResult &R : Results)
        if (!R.ok()) {
          std::fprintf(stderr, "FAILURE: %s\n", R.Diagnostic.c_str());
          return 1;
        }
      BatchAsm = concatAsm(Results);
    }
    if (Reference.empty())
      Reference = BatchAsm;
    bool BatchIdentical = BatchAsm == Reference;
    AllIdentical = AllIdentical && BatchIdentical;
    Table.addRow({"batch", std::to_string(Threads),
                  formatFixed(static_cast<double>(BatchColdNs) / 1e6, 1),
                  formatFixed(static_cast<double>(BatchWarmNs) / 1e6, 1),
                  formatFixed(static_cast<double>(N) * 1e9 /
                                  static_cast<double>(BatchWarmNs),
                              1),
                  "-", "-", "-",
                  BatchIdentical ? (Threads == 1 ? "reference" : "identical")
                                 : "DIVERGED"});

    // ---- Service mode: continuous submission, ordered delivery. ----
    // SubmitNs[Seq] is written before the submit that gets Seq and read
    // by the sink at delivery; the service's internal synchronization
    // orders the two. Seq keeps counting across passes.
    std::vector<std::uint64_t> SubmitNs((1 + WarmReps) * N);
    std::vector<std::uint64_t> LatencyNs((1 + WarmReps) * N);
    std::string Streamed;
    CompileService::Options Opts;
    Opts.Workers = Threads;
    Opts.OnResult = [&](std::size_t Seq, const CompileResult &R) {
      LatencyNs[Seq] = nowNs() - SubmitNs[Seq];
      Streamed += R.Asm;
    };
    std::unique_ptr<CompileService> Svc =
        cantFail(CompileService::create(T->G, &T->Dyn, std::move(Opts)));

    auto RunPass = [&](std::size_t Base) {
      Stopwatch Wall;
      for (std::size_t I = 0; I < N; ++I) {
        SubmitNs[Base + I] = nowNs();
        cantFail(Svc->submit(*Ptrs[I]));
      }
      Svc->drain();
      return Wall.elapsedNs();
    };

    Streamed.clear();
    std::uint64_t SvcColdNs = RunPass(0);
    std::string ColdStreamed = Streamed;
    std::uint64_t SvcWarmNs = ~0ULL;
    std::size_t BestBase = 0;
    for (unsigned R = 0; R < WarmReps; ++R) {
      Streamed.clear();
      std::size_t Base = (1 + R) * N;
      std::uint64_t PassNs = RunPass(Base);
      if (PassNs < SvcWarmNs) {
        SvcWarmNs = PassNs;
        BestBase = Base;
      }
    }
    bool SvcIdentical = ColdStreamed == Reference && Streamed == Reference;
    AllIdentical = AllIdentical && SvcIdentical;

    std::vector<std::uint64_t> Lat(LatencyNs.begin() + BestBase,
                                   LatencyNs.begin() + BestBase + N);
    std::sort(Lat.begin(), Lat.end());
    Table.addRow({"service", std::to_string(Threads),
                  formatFixed(static_cast<double>(SvcColdNs) / 1e6, 1),
                  formatFixed(static_cast<double>(SvcWarmNs) / 1e6, 1),
                  formatFixed(static_cast<double>(N) * 1e9 /
                                  static_cast<double>(SvcWarmNs),
                              1),
                  formatFixed(percentile(Lat, 0.5), 1),
                  formatFixed(percentile(Lat, 0.9), 1),
                  formatFixed(percentile(Lat, 0.99), 1),
                  SvcIdentical ? "identical" : "DIVERGED"});
  }
  Table.print();
  recordTable("p5_service", Table);
  std::printf(
      "\nbatch = compileAll (submit everything, wait for all futures);\n"
      "service = one submit() per function, results streamed back in "
      "submission\norder. Each mode runs on its own persistent worker pool."
      "\nLatency percentiles are submit -> in-order delivery over the "
      "best warm\npass, including backpressure waits at the default queue "
      "bound. The asm\ncolumn compares every mode, thread count, and "
      "temperature against the\n1-thread batch reference — it must never "
      "read DIVERGED.\n");
  if (!AllIdentical) {
    std::fprintf(stderr, "FAILURE: a run diverged from the reference "
                         "assembly\n");
    return 1;
  }
  return writeJsonReport() ? 0 : 1;
}

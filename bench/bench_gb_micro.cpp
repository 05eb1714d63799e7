//===- bench/bench_gb_micro.cpp - google-benchmark microbenchmarks -------------===//
//
// Part of the odburg project.
//
// Google-benchmark harness over the three labeling engines (x86 grammar,
// gzip-like workload) and the automaton's cold start. Complements the
// table benches (T3/T4) with statistically managed timings; the reported
// items/s is nodes labeled per second.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <benchmark/benchmark.h>

using namespace odburg;
using namespace odburg::workload;

namespace {

/// Shared fixture state (built once; benchmarks only read/relabel).
struct Env {
  std::unique_ptr<targets::Target> T;
  ir::IRFunction F;      // Against the full grammar.
  ir::IRFunction FFixed; // Against the stripped grammar.

  Env() {
    T = cantFail(targets::makeTarget("x86"));
    Profile P = *findProfile("gzip-like");
    F = cantFail(generate(P, T->G));
    FFixed = cantFail(generate(P, T->Fixed));
  }
};

Env &env() {
  static Env E;
  return E;
}

void BM_LabelDP(benchmark::State &State) {
  Env &E = env();
  DPLabeler DP(E.T->G, &E.T->Dyn);
  for (auto _ : State) {
    DPLabeling L = DP.label(E.F);
    benchmark::DoNotOptimize(&L);
  }
  State.SetItemsProcessed(State.iterations() * E.F.size());
}

void BM_LabelOnDemandWarm(benchmark::State &State) {
  Env &E = env();
  OnDemandAutomaton A(E.T->G, &E.T->Dyn);
  A.labelFunction(E.F); // Warm up outside the timed loop.
  for (auto _ : State)
    A.labelFunction(E.F);
  State.SetItemsProcessed(State.iterations() * E.F.size());
}

void BM_LabelOnDemandCold(benchmark::State &State) {
  Env &E = env();
  for (auto _ : State) {
    OnDemandAutomaton A(E.T->G, &E.T->Dyn);
    A.labelFunction(E.F);
  }
  State.SetItemsProcessed(State.iterations() * E.F.size());
}

void BM_LabelOfflineTables(benchmark::State &State) {
  Env &E = env();
  static std::unique_ptr<LabelerBackend> Off =
      cantFail(LabelerBackend::create(BackendKind::Offline, E.T->Fixed));
  LabelerScratch Scratch;
  for (auto _ : State)
    Off->labelFunction(E.FFixed, Scratch);
  State.SetItemsProcessed(State.iterations() * E.FFixed.size());
}

void BM_OfflineGeneration(benchmark::State &State) {
  Env &E = env();
  for (auto _ : State) {
    CompiledTables Tables = cantFail(OfflineTableGen(E.T->Fixed).generate());
    benchmark::DoNotOptimize(&Tables);
  }
}

void BM_ReduceAndEmit(benchmark::State &State) {
  Env &E = env();
  OnDemandAutomaton A(E.T->G, &E.T->Dyn);
  A.labelFunction(E.F);
  for (auto _ : State) {
    Selection S = cantFail(reduce(E.T->G, E.F, A, &E.T->Dyn));
    benchmark::DoNotOptimize(&S);
  }
}

BENCHMARK(BM_LabelDP);
BENCHMARK(BM_LabelOnDemandWarm);
BENCHMARK(BM_LabelOnDemandCold);
BENCHMARK(BM_LabelOfflineTables);
BENCHMARK(BM_OfflineGeneration);
BENCHMARK(BM_ReduceAndEmit);

} // namespace

// Hand-rolled BENCHMARK_MAIN so the binary honors the project-wide
// --smoke convention (CI runs every bench with it): --smoke becomes a
// tiny --benchmark_min_time, keeping all benchmarks exercised but cheap.
int main(int Argc, char **Argv) {
  std::vector<char *> Args;
  bool Smoke = false;
  for (int I = 0; I < Argc; ++I) {
    if (std::string_view(Argv[I]) == "--smoke")
      Smoke = true;
    else
      Args.push_back(Argv[I]);
  }
  // Plain double (no "s" suffix): accepted by every google-benchmark
  // version; newer releases only print a deprecation note.
  char MinTime[] = "--benchmark_min_time=0.001";
  if (Smoke)
    Args.push_back(MinTime);
  int EffArgc = static_cast<int>(Args.size());
  benchmark::Initialize(&EffArgc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(EffArgc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

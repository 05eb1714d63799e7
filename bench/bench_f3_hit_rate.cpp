//===- bench/bench_f3_hit_rate.cpp - Figure F3 ---------------------------------===//
//
// Part of the odburg project.
//
// F3: transition-cache hit rate over time (per-window series, cold start),
// and the same input replayed warm. The miss tail after warm-up is what
// separates the on-demand automaton from precomputed tables — and the
// series shows it vanishes almost immediately.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace odburg;
using namespace odburg::bench;
using namespace odburg::workload;

int main(int Argc, char **Argv) {
  parseBenchArgs(Argc, Argv);
  auto T = cantFail(targets::makeTarget("x86"));
  Profile P = *findProfile("vortex-like");
  P.TargetNodes = smokeScaled(P.TargetNodes, 3200);
  ir::IRFunction F = cantFail(generate(P, T->G));

  std::printf("F3. Transition-cache hit rate per window of %u nodes "
              "(x86, vortex-like)\n", F.size() / 16);
  std::printf("%8s %12s %12s\n", "window", "cold hit%", "warm hit%");

  OnDemandAutomaton A(T->G, &T->Dyn);
  unsigned WindowSize = F.size() / 16;
  auto WindowRate = [](const SelectionStats &Now, const SelectionStats &Prev) {
    std::uint64_t Probes = Now.CacheProbes - Prev.CacheProbes;
    std::uint64_t Hits = Now.CacheHits - Prev.CacheHits;
    return Probes ? 100.0 * static_cast<double>(Hits) /
                        static_cast<double>(Probes)
                  : 100.0;
  };
  std::vector<double> ColdRates;
  SelectionStats Prev;
  SelectionStats Stats;
  for (ir::Node *N : F.nodes()) {
    A.labelNode(*N, Stats);
    if (Stats.NodesLabeled % WindowSize == 0) {
      ColdRates.push_back(WindowRate(Stats, Prev));
      Prev = Stats;
    }
  }
  // Warm replay.
  std::vector<double> WarmRates;
  Prev = SelectionStats();
  Stats = SelectionStats();
  for (ir::Node *N : F.nodes()) {
    A.labelNode(*N, Stats);
    if (Stats.NodesLabeled % WindowSize == 0) {
      WarmRates.push_back(WindowRate(Stats, Prev));
      Prev = Stats;
    }
  }
  for (std::size_t I = 0; I < ColdRates.size(); ++I) {
    double Warm = I < WarmRates.size() ? WarmRates[I] : 100.0;
    std::printf("%8zu %12.2f %12.2f\n", I + 1, ColdRates[I], Warm);
    recordJson("f3_hit_rate", {{"window", std::to_string(I + 1)},
                               {"cold_hit_pct", formatFixed(ColdRates[I], 2)},
                               {"warm_hit_pct", formatFixed(Warm, 2)}});
  }
  std::printf("\nExpected shape: the cold series climbs fast and keeps "
              "creeping upward as\nthe remaining novel (op, child-state) "
              "combinations thin out; the warm\nseries is 100%% "
              "everywhere.\n");
  return writeJsonReport() ? 0 : 1;
}

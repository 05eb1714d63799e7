//===- bench/bench_f1_state_growth.cpp - Figure F1 -----------------------------===//
//
// Part of the odburg project.
//
// F1: states materialized vs. nodes labeled (series; plot nodes on x,
// states on y). The curve must rise steeply at first and flatten fast —
// the automaton converges long before the input ends, which is why the
// amortized fast path dominates.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace odburg;
using namespace odburg::bench;
using namespace odburg::workload;

int main(int Argc, char **Argv) {
  parseBenchArgs(Argc, Argv);
  auto T = cantFail(targets::makeTarget("x86"));
  Profile P = *findProfile("gcc-like");
  P.TargetNodes = smokeScaled(P.TargetNodes, 2000);
  ir::IRFunction F = cantFail(generate(P, T->G));

  OnDemandAutomaton A(T->G, &T->Dyn);
  std::printf("F1. On-demand automaton growth (x86, gcc-like, %u nodes)\n",
              F.size());
  std::printf("%10s %8s %12s %10s\n", "nodes", "states", "transitions",
              "hit rate%");

  SelectionStats Stats;
  unsigned Window = F.size() / 20;
  unsigned NextReport = Window;
  for (ir::Node *N : F.nodes()) {
    A.labelNode(*N, Stats);
    if (Stats.NodesLabeled >= NextReport) {
      double HitPct = 100.0 * static_cast<double>(Stats.CacheHits) /
                      static_cast<double>(Stats.CacheProbes);
      std::printf("%10llu %8u %12zu %10.2f\n",
                  static_cast<unsigned long long>(Stats.NodesLabeled),
                  A.numStates(), A.numTransitions(), HitPct);
      recordJson("f1_state_growth",
                 {{"nodes", std::to_string(Stats.NodesLabeled)},
                  {"states", std::to_string(A.numStates())},
                  {"transitions", std::to_string(A.numTransitions())},
                  {"hit_pct", formatFixed(HitPct, 2)}});
      NextReport += Window;
    }
  }
  std::printf("\nExpected shape: states flatten out fast (the automaton "
              "converges long\nbefore the input ends) while transitions and "
              "the hit rate keep creeping\nupward as rare combinations "
              "arrive.\n");
  return writeJsonReport() ? 0 : 1;
}

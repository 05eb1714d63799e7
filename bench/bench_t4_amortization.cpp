//===- bench/bench_t4_amortization.cpp - Table T4 ------------------------------===//
//
// Part of the odburg project.
//
// T4: cold-start and amortization. The offline generator pays its whole
// table-construction cost before the first node; the on-demand automaton
// pays per miss, proportional to the states the input touches; the DP
// labeler pays nothing up front and everything per node. This table shows
// total time (setup + labeling) as input size grows, plus the time to
// first labeled function — the metric a JIT cares about.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace odburg;
using namespace odburg::bench;
using namespace odburg::workload;

int main(int Argc, char **Argv) {
  parseBenchArgs(Argc, Argv);
  auto T = cantFail(targets::makeTarget("x86"));
  Profile Base = *findProfile("gcc-like");

  TablePrinter Table("T4. Total time [ms]: setup + labeling, by input size "
                     "(x86, gcc-like, fixed-cost grammar for comparability)");
  Table.setHeader({"nodes", "dp", "ondemand (cold)", "offline gen",
                   "offline label", "offline total"});

  std::vector<unsigned> Sizes = {500u, 2000u, 10000u, 50000u, 200000u};
  if (smokeMode())
    Sizes = {500u, 2000u};
  for (unsigned Nodes : Sizes) {
    Profile P = Base;
    P.TargetNodes = Nodes;
    ir::IRFunction F = cantFail(generate(P, T->Fixed));

    DPLabeler DP(T->Fixed);
    std::uint64_t DPNs = bestOfNs(3, [&] { DP.label(F); });

    // Cold on-demand: construct a fresh automaton inside the timed region.
    std::uint64_t ODNs = bestOfNs(3, [&] {
      OnDemandAutomaton A(T->Fixed);
      A.labelFunction(F);
    });

    std::uint64_t GenNs = bestOfNs(3, [&] {
      CompiledTables Tables = cantFail(OfflineTableGen(T->Fixed).generate());
      (void)Tables;
    });
    auto Off =
        cantFail(LabelerBackend::create(BackendKind::Offline, T->Fixed));
    LabelerScratch Scratch;
    std::uint64_t OffNs = bestOfNs(3, [&] { Off->labelFunction(F, Scratch); });

    auto Ms = [](std::uint64_t Ns) { return formatFixed(Ns / 1e6, 3); };
    Table.addRow({formatThousands(F.size()), Ms(DPNs), Ms(ODNs), Ms(GenNs),
                  Ms(OffNs), Ms(GenNs + OffNs)});
  }
  Table.print();
  recordTable("t4_amortization", Table);
  std::printf("\nExpected shape: on-demand beats dp from the start and never "
              "pays the\noffline generation bill; offline amortizes its "
              "up-front generation only\nbeyond the crossover input size.\n");
  return writeJsonReport() ? 0 : 1;
}

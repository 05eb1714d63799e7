//===- bench/bench_t3_labeling_speed.cpp - Table T3 ---------------------------===//
//
// Part of the odburg project.
//
// T3: the headline comparison — labeling work and time per node for the
// three engines on the SPEC-like workloads (x86 grammar, the largest one).
// The paper's shape: the automaton's work per node is flat and small; the
// DP labeler pays per applicable rule. We report deterministic work units
// (rule checks + chain relaxations + probes + state computations + hook
// evaluations) and wall time. The on-demand automaton is measured *warm*
// (it persists across functions in a JIT); its cold pass is T4's subject.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace odburg;
using namespace odburg::bench;
using namespace odburg::workload;

int main(int Argc, char **Argv) {
  parseBenchArgs(Argc, Argv);
  auto T = cantFail(targets::makeTarget("x86"));
  auto Off = cantFail(LabelerBackend::create(BackendKind::Offline, T->Fixed));
  LabelerScratch Scratch;

  TablePrinter Work("T3a. Labeling work units per node (x86)");
  Work.setHeader({"benchmark", "nodes", "dp", "ondemand", "offline",
                  "dp/od"});
  TablePrinter Time("T3b. Labeling time per node [ns] (x86; od = warm)");
  Time.setHeader({"benchmark", "dp", "ondemand", "offline", "dp/od",
                  "od/offl"});

  for (const Profile &Spec : specProfiles()) {
    Profile P = Spec;
    P.TargetNodes = smokeScaled(P.TargetNodes, 1000);
    // Workloads are generated against the full grammar; the stripped
    // grammar shares operator ids, so the same IR serves all engines.
    ir::IRFunction F = cantFail(generate(P, T->G));
    ir::IRFunction FFixed = cantFail(generate(P, T->Fixed));
    double N = F.size();

    DPLabeler DP(T->G, &T->Dyn);
    SelectionStats DPStats;
    DP.label(F, &DPStats);
    std::uint64_t DPNs = bestOfNs(3, [&] { DP.label(F); });

    OnDemandAutomaton A(T->G, &T->Dyn);
    A.labelFunction(F); // Warm up: materialize the states this input needs.
    SelectionStats ODStats;
    A.labelFunction(F, &ODStats);
    std::uint64_t ODNs = bestOfNs(3, [&] { A.labelFunction(F); });

    SelectionStats OffStats;
    Off->labelFunction(FFixed, Scratch, &OffStats);
    std::uint64_t OffNs =
        bestOfNs(3, [&] { Off->labelFunction(FFixed, Scratch); });

    Work.addRow(
        {P.Name, formatThousands(F.size()),
         formatFixed(DPStats.workUnits() / N, 2),
         formatFixed(ODStats.workUnits() / N, 2),
         formatFixed(OffStats.workUnits() / static_cast<double>(FFixed.size()),
                     2),
         formatFixed(static_cast<double>(DPStats.workUnits()) /
                         static_cast<double>(ODStats.workUnits()),
                     2)});
    Time.addRow({P.Name, formatFixed(DPNs / N, 1), formatFixed(ODNs / N, 1),
                 formatFixed(OffNs / static_cast<double>(FFixed.size()), 1),
                 formatFixed(static_cast<double>(DPNs) / ODNs, 2),
                 formatFixed(static_cast<double>(ODNs) / N /
                                 (OffNs / static_cast<double>(FFixed.size())),
                             2)});
  }
  Work.print();
  recordTable("t3a_work_units", Work);
  std::printf("\n");
  Time.print();
  recordTable("t3b_time_per_node", Time);
  std::printf("\nExpected shape: dp/od well above 1 and growing with grammar "
              "size;\nondemand within a small factor of the offline tables "
              "(hash probe vs.\narray index), while also supporting the "
              "dynamic-cost rules offline cannot.\n");
  return writeJsonReport() ? 0 : 1;
}

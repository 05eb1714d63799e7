//===- bench/bench_t2_states_on_demand.cpp - Table T2 -------------------------===//
//
// Part of the odburg project.
//
// T2: how much of the automaton real inputs actually need. For each
// target, compile the whole MiniC corpus plus every synthetic SPEC-like
// workload with one persistent on-demand automaton and report the states
// and transitions materialized — against the exhaustive automaton's state
// count (on the stripped grammar, since offline generation cannot handle
// dynamic costs). The paper's claim: the on-demand automaton stays a small
// fraction of the full one.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace odburg;
using namespace odburg::bench;
using namespace odburg::workload;

int main(int Argc, char **Argv) {
  parseBenchArgs(Argc, Argv);
  TablePrinter Table("T2. States materialized on demand (corpus + all "
                     "synthetic workloads)");
  Table.setHeader({"grammar", "full states", "od states", "fraction %",
                   "od trans", "hit rate %", "od states (dyn grammar)"});

  for (const std::string &Name : targets::targetNames()) {
    auto T = cantFail(targets::makeTarget(Name));
    CompiledTables Tables = cantFail(OfflineTableGen(T->Fixed).generate());

    // Apples-to-apples state counts: run on the same (stripped) grammar.
    OnDemandAutomaton Fixed(T->Fixed);
    SelectionStats FS;
    for (const CorpusProgram &P : corpus()) {
      ir::IRFunction F = cantFail(compileCorpusProgram(P, T->Fixed));
      Fixed.labelFunction(F, &FS);
    }
    for (const Profile &Spec : specProfiles()) {
      Profile P = Spec;
      P.TargetNodes = smokeScaled(P.TargetNodes, 1000);
      ir::IRFunction F = cantFail(generate(P, T->Fixed));
      Fixed.labelFunction(F, &FS);
    }

    // The full grammar with dynamic costs (what a JIT would really run).
    OnDemandAutomaton Dyn(T->G, &T->Dyn);
    for (const CorpusProgram &P : corpus()) {
      ir::IRFunction F = cantFail(compileCorpusProgram(P, T->G));
      Dyn.labelFunction(F);
    }
    for (const Profile &Spec : specProfiles()) {
      Profile P = Spec;
      P.TargetNodes = smokeScaled(P.TargetNodes, 1000);
      ir::IRFunction F = cantFail(generate(P, T->G));
      Dyn.labelFunction(F);
    }

    double Fraction = 100.0 * Fixed.numStates() / Tables.stats().NumStates;
    double HitRate =
        FS.CacheProbes ? 100.0 * static_cast<double>(FS.CacheHits) /
                             static_cast<double>(FS.CacheProbes)
                       : 0.0;
    Table.addRow({Name, std::to_string(Tables.stats().NumStates),
                  std::to_string(Fixed.numStates()), formatFixed(Fraction, 1),
                  std::to_string(Fixed.numTransitions()),
                  formatFixed(HitRate, 2), std::to_string(Dyn.numStates())});
  }
  Table.print();
  recordTable("t2_states_on_demand", Table);
  return writeJsonReport() ? 0 : 1;
}

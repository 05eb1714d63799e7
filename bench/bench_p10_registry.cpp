//===- bench/bench_p10_registry.cpp - Table P10 -------------------------------===//
//
// Part of the odburg project.
//
// P10: the multi-tenant grammar registry. The claim under measurement:
// restart cost is an artifact, not a tax. A server that drained through
// dumpWarmSnapshots() and restarted against the same spool directory
// serves its first batch out of reloaded compiled tables and a restored
// warm automaton instead of regenerating both — so the first-batch wall
// time of the "restart" phase should beat the "cold" phase, with the gap
// widening as grammars grow.
//
// For each built-in target grammar, two phases over one spool directory:
//
//   cold     fresh spool; acquire + first batch pays table generation and
//            automaton warm-up, then the run dumps its warm snapshots;
//   restart  new registry over the same spool (a restarted process);
//            the hybrid's tables come from <name>.hybrid.tables and its
//            automaton from <name>.hybrid.warm.
//
// Correctness gates the exit code: both phases' concatenated assembly is
// byte-checked against an iburg-style DP session on the same corpus, and
// the restart phase must report nonzero SnapshotHits and TablesLoads —
// the spool has to actually serve the state, not silently cold-start.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "pipeline/CompileService.h"
#include "registry/GrammarRegistry.h"

#include <cstdlib>
#include <filesystem>
#include <unistd.h>

using namespace odburg;
using namespace odburg::bench;
using namespace odburg::pipeline;
using namespace odburg::workload;

namespace {

std::vector<ir::IRFunction> makeCorpus(const Grammar &G) {
  std::vector<ir::IRFunction> Corpus;
  for (const char *Name : {"gzip-like", "gcc-like"}) {
    Profile P = *findProfile(Name);
    std::vector<ir::IRFunction> Fns = cantFail(
        generateBatch(P, G, /*Count=*/smokeScaled(12, 3),
                      /*TargetNodes=*/smokeScaled(2000, 300)));
    for (ir::IRFunction &F : Fns)
      Corpus.push_back(std::move(F));
  }
  return Corpus;
}

struct Phase {
  std::uint64_t FirstBatchNs = 0;
  std::string Asm;
  registry::RegistryStats Stats;
  bool Failed = false;
};

/// One registry lifetime: acquire \p Name, run the corpus once through a
/// borrowed-backend service (the server's RegLane shape), snapshot the
/// registry counters. \p Dump writes the warm snapshots back on the way
/// out — the drain step of the phase.
Phase runPhase(const std::string &Dir, const std::string &Name,
               std::vector<ir::IRFunction *> &Ptrs, bool Dump) {
  Phase Out;
  registry::GrammarRegistry::Options RO;
  RO.Dir = Dir;
  registry::GrammarRegistry Reg(RO);

  Stopwatch Wall;
  Expected<registry::Lease> L = Reg.acquire(Name);
  if (!L) {
    std::fprintf(stderr, "FAILURE: acquire(%s): %s\n", Name.c_str(),
                 L.message().c_str());
    Out.Failed = true;
    return Out;
  }
  Expected<LabelerBackend *> B = (*L)->backend(BackendKind::Hybrid);
  if (!B) {
    std::fprintf(stderr, "FAILURE: backend(%s): %s\n", Name.c_str(),
                 B.message().c_str());
    Out.Failed = true;
    return Out;
  }
  std::vector<CompileResult> Results(Ptrs.size());
  {
    CompileService::Options SO;
    SO.Workers = 2;
    SO.OnResult = [&](std::size_t Seq, const CompileResult &R) {
      Results[Seq] = R;
    };
    CompileService Svc((*L)->grammar(BackendKind::Hybrid),
                       (*L)->dynCosts(BackendKind::Hybrid), **B, SO);
    cantFail(Svc.submitBatch(Ptrs));
    Svc.drain();
  }
  Out.FirstBatchNs = Wall.elapsedNs();

  for (const CompileResult &R : Results)
    if (!R.ok()) {
      std::fprintf(stderr, "FAILURE: %s: %s\n", Name.c_str(),
                   R.Diagnostic.c_str());
      Out.Failed = true;
      return Out;
    }
  Out.Asm = concatAsm(Results);
  if (Dump) {
    if (Error E = Reg.dumpWarmSnapshots()) {
      std::fprintf(stderr, "FAILURE: dumpWarmSnapshots: %s\n",
                   E.message().c_str());
      Out.Failed = true;
    }
  }
  Out.Stats = Reg.statsSnapshot();
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  parseBenchArgs(Argc, Argv);

  char DirBuf[] = "/tmp/odburg-bench-p10-XXXXXX";
  if (!::mkdtemp(DirBuf)) {
    std::fprintf(stderr, "FAILURE: mkdtemp\n");
    return 1;
  }
  std::string SpoolBase = DirBuf;

  TablePrinter Table(formatf("P10. Registry first batch, cold vs restarted "
                             "spool (hybrid backend, %u functions/grammar)",
                             smokeScaled(24, 6)));
  Table.setHeader({"grammar", "phase", "first batch ms", "fn/s", "speedup",
                   "snap hits", "tbl loads", "asm"});

  bool AllIdentical = true;
  bool AnyFailed = false;
  bool RestartServedWarm = true;

  for (const char *Name : {"x86", "mips", "sparc"}) {
    // Each grammar gets its own spool so the phases stay independent.
    std::string Dir = SpoolBase + "/" + Name;
    std::filesystem::create_directory(Dir);

    // The corpus and the DP reference come from the same grammar objects
    // the registry serves.
    auto T = cantFail(targets::makeTarget(Name));
    std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);
    std::vector<ir::IRFunction *> Ptrs;
    for (ir::IRFunction &F : Corpus)
      Ptrs.push_back(&F);

    CompileService::Options DpOpts;
    DpOpts.Backend = BackendKind::DP;
    DpOpts.Workers = 1;
    auto Dp = cantFail(CompileService::create(T->G, &T->Dyn, DpOpts));
    std::string Reference = concatAsm(cantFail(compileAll(*Dp, Ptrs)));

    Phase Cold = runPhase(Dir, Name, Ptrs, /*Dump=*/true);
    Phase Restart = runPhase(Dir, Name, Ptrs, /*Dump=*/false);

    double ColdFnPerSec = 0;
    for (const auto &[PhaseName, P] :
         {std::pair<const char *, const Phase &>{"cold", Cold},
          {"restart", Restart}}) {
      if (P.Failed) {
        AnyFailed = true;
        continue;
      }
      bool Identical = P.Asm == Reference;
      AllIdentical = AllIdentical && Identical;
      double FnPerSec = static_cast<double>(Ptrs.size()) * 1e9 /
                        static_cast<double>(P.FirstBatchNs);
      if (P.Stats.SnapshotHits == 0)
        ColdFnPerSec = FnPerSec;
      double Speedup = ColdFnPerSec ? FnPerSec / ColdFnPerSec : 0.0;
      Table.addRow({Name, PhaseName,
                    formatFixed(static_cast<double>(P.FirstBatchNs) / 1e6, 1),
                    formatFixed(FnPerSec, 1), formatFixed(Speedup, 2),
                    std::to_string(P.Stats.SnapshotHits),
                    std::to_string(P.Stats.TablesLoads),
                    Identical ? "identical" : "DIVERGED"});
      recordJson("p10_registry",
                 {{"grammar", jsonQuote(Name)},
                  {"phase", jsonQuote(PhaseName)},
                  {"first_batch_ms",
                   formatFixed(static_cast<double>(P.FirstBatchNs) / 1e6, 3)},
                  {"first_batch_fn_per_s", formatFixed(FnPerSec, 2)},
                  {"snapshot_hits", std::to_string(P.Stats.SnapshotHits)},
                  {"tables_loads", std::to_string(P.Stats.TablesLoads)},
                  {"identical", Identical ? "true" : "false"}});
    }
    if (!Restart.Failed &&
        (Restart.Stats.SnapshotHits == 0 || Restart.Stats.TablesLoads == 0))
      RestartServedWarm = false;
    Table.addSeparator();
  }
  Table.print();

  std::printf(
      "\nExpected shape: every restart row shows nonzero snap hits and\n"
      "tbl loads (the spool served the state) and a speedup above 1 —\n"
      "the first batch skipped table generation and automaton warm-up.\n"
      "The exit code gates byte-identity against dp and the restart\n"
      "rows' spool service; the speedup itself is recorded in the JSON\n"
      "report for the CI comparison.\n");

  std::error_code EC;
  std::filesystem::remove_all(SpoolBase, EC);

  if (AnyFailed || !AllIdentical) {
    std::fprintf(stderr, "FAILURE: a phase diverged from the DP reference "
                         "or failed outright\n");
    return 1;
  }
  if (!RestartServedWarm) {
    std::fprintf(stderr, "FAILURE: a restarted registry served no snapshot "
                         "or table loads from its spool\n");
    return 1;
  }
  return writeJsonReport() ? 0 : 1;
}

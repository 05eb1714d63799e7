//===- bench/bench_p8_hybrid.cpp - Table P8 -----------------------------------===//
//
// Part of the odburg project.
//
// P8: the hybrid backend. The claim under measurement: on the static
// partition of a grammar the hybrid labels at offline-table speed (one
// direct table index per node, no key construction, no cache probe),
// while keeping the paper's dynamic-cost flexibility on the remainder —
// a configuration pure offline tables reject outright. Two workloads:
//
//   (a) static-cost x86 grammar — the partition covers every operator,
//       the hybrid degenerates to pure offline dispatch fronting an idle
//       automaton; comparable against dp, offline, and ondemand alike;
//   (b) full (mixed-cost) x86 grammar — dyn-hook operators fall to the
//       automaton's cache probe, everything else stays on the
//       tables; offline cannot run here, so the row set is dp /
//       ondemand / hybrid.
//
// Correctness gates the exit code: every cell's concatenated assembly is
// checked byte-for-byte against the iburg-style DP backend on the same
// corpus, and on the mixed-cost grammar the hybrid must report a nonzero
// OfflineHits counter — the accelerator has to actually serve static
// lookups from the tables, not silently fall through to the warm path.
// Throughput ratios are *recorded* in the JSON report (CI compares them
// warn-only); the multicore replay owns the authoritative numbers.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <thread>

using namespace odburg;
using namespace odburg::bench;
using namespace odburg::pipeline;
using namespace odburg::workload;

namespace {

std::vector<ir::IRFunction> makeCorpus(const Grammar &G) {
  std::vector<ir::IRFunction> Corpus;
  for (const char *Name : {"gzip-like", "gcc-like", "twolf-like"}) {
    Profile P = *findProfile(Name);
    std::vector<ir::IRFunction> Fns = cantFail(
        generateBatch(P, G, /*Count=*/smokeScaled(16, 3),
                      /*TargetNodes=*/smokeScaled(3000, 400)));
    for (ir::IRFunction &F : Fns)
      Corpus.push_back(std::move(F));
  }
  return Corpus;
}

/// Warm passes per cell; the throughput numbers come from these.
unsigned warmPasses() { return smokeScaled(3, 1); }

struct Cell {
  std::uint64_t WarmNs = 0;
  /// Labeling counters summed over the warm passes.
  SelectionStats Warm;
  std::string Asm;
  bool Failed = false;
};

/// One backend over the corpus: a cold pass, then the warm repetitions
/// the numbers come from. Asm is the final pass's output for the
/// identity check.
Cell runCell(const Grammar &G, const DynCostTable *Dyn, BackendKind Kind,
             std::vector<ir::IRFunction *> &Ptrs, unsigned Threads) {
  Cell Out;
  CompileService::Options Opts;
  Opts.Backend = Kind;
  Opts.Workers = Threads;
  auto SvcOrErr = CompileService::create(G, Dyn, Opts);
  if (!SvcOrErr) {
    std::fprintf(stderr, "FAILURE: %s: %s\n", backendName(Kind),
                 SvcOrErr.message().c_str());
    Out.Failed = true;
    return Out;
  }
  CompileService &Svc = **SvcOrErr;

  std::vector<CompileResult> Results =
      cantFail(compileAll(Svc, Ptrs)); // Cold pass.

  Stopwatch WarmWall;
  for (unsigned R = 0; R < warmPasses(); ++R) {
    Results = cantFail(compileAll(Svc, Ptrs));
    Out.Warm += labelStats(Results);
  }
  Out.WarmNs = WarmWall.elapsedNs();

  for (const CompileResult &R : Results)
    if (!R.ok()) {
      std::fprintf(stderr, "FAILURE: %s: %s\n", backendName(Kind),
                   R.Diagnostic.c_str());
      Out.Failed = true;
      return Out;
    }
  Out.Asm = concatAsm(Results);
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  parseBenchArgs(Argc, Argv);
  auto T = cantFail(targets::makeTarget("x86"));

  bool AllIdentical = true;
  bool AnyFailed = false;
  bool HybridHitTables = false;

  for (bool Mixed : {false, true}) {
    const Grammar &G = Mixed ? T->G : T->Fixed;
    const DynCostTable *Dyn = Mixed ? &T->Dyn : nullptr;
    std::vector<BackendKind> Kinds =
        Mixed ? std::vector<BackendKind>{BackendKind::DP, BackendKind::OnDemand,
                                         BackendKind::Hybrid}
              : std::vector<BackendKind>{BackendKind::DP, BackendKind::Offline,
                                         BackendKind::OnDemand,
                                         BackendKind::Hybrid};

    std::vector<ir::IRFunction> Corpus = makeCorpus(G);
    std::vector<ir::IRFunction *> Ptrs;
    std::uint64_t TotalNodes = 0;
    for (ir::IRFunction &F : Corpus) {
      Ptrs.push_back(&F);
      TotalNodes += F.size();
    }

    TablePrinter Table(formatf(
        "P8%s. Hybrid offline+on-demand backend, x86 %s grammar (%llu "
        "nodes; hw threads: %u)",
        Mixed ? "b" : "a", Mixed ? "mixed-cost (full)" : "static-cost",
        static_cast<unsigned long long>(TotalNodes),
        std::thread::hardware_concurrency()));
    Table.setHeader({"backend", "threads", "warm ms", "warm fn/s",
                     "vs dp", "off%", "asm"});

    for (unsigned Threads : {1u, 2u}) {
      double DpFnPerSec = 0;
      std::string Reference;
      for (BackendKind Kind : Kinds) {
        Cell C = runCell(G, Dyn, Kind, Ptrs, Threads);
        if (C.Failed) {
          AnyFailed = true;
          continue;
        }
        if (Kind == BackendKind::DP)
          Reference = C.Asm;
        bool Identical = C.Asm == Reference;
        AllIdentical = AllIdentical && Identical;
        double FnPerSec =
            static_cast<double>(Ptrs.size() * warmPasses()) * 1e9 /
            static_cast<double>(C.WarmNs);
        if (Kind == BackendKind::DP)
          DpFnPerSec = FnPerSec;
        double OffRate =
            C.Warm.NodesLabeled
                ? static_cast<double>(C.Warm.OfflineHits) /
                      static_cast<double>(C.Warm.NodesLabeled)
                : 0.0;
        if (Mixed && Kind == BackendKind::Hybrid && C.Warm.OfflineHits > 0)
          HybridHitTables = true;
        Table.addRow({backendName(Kind), std::to_string(Threads),
                      formatFixed(static_cast<double>(C.WarmNs) / 1e6, 1),
                      formatFixed(FnPerSec, 1),
                      formatFixed(DpFnPerSec ? FnPerSec / DpFnPerSec : 0.0,
                                  2),
                      formatFixed(100.0 * OffRate, 1),
                      Identical ? "identical" : "DIVERGED"});
        recordJson(Mixed ? "p8b_hybrid_mixed" : "p8a_hybrid_static",
                   {{"backend", jsonQuote(backendName(Kind))},
                    {"threads", std::to_string(Threads)},
                    {"warm_fn_per_s", formatFixed(FnPerSec, 2)},
                    {"offline_hit_rate", formatFixed(OffRate, 4)},
                    {"offline_hits",
                     std::to_string(C.Warm.OfflineHits)},
                    {"identical", Identical ? "true" : "false"}});
      }
      Table.addSeparator();
    }
    Table.print();
    std::printf("\n");
  }

  std::printf(
      "Expected shape: on the static grammar the offline and hybrid\n"
      "off%% columns both read 100 (every node is one direct table index,\n"
      "through the same offlineResolve) and the hybrid's warm throughput\n"
      "tracks the offline row. On the mixed-cost grammar —\n"
      "where pure offline tables cannot run at all — off%% is the static\n"
      "share of the workload, and every hybrid row stays byte-identical\n"
      "to dp. The exit code gates both identities and a nonzero\n"
      "offline-hit count on the mixed grammar.\n");
  if (AnyFailed || !AllIdentical) {
    std::fprintf(stderr, "FAILURE: a cell diverged from the DP reference "
                         "or failed to compile\n");
    return 1;
  }
  if (!HybridHitTables) {
    std::fprintf(stderr, "FAILURE: the hybrid served no offline-table "
                         "lookups on the mixed-cost grammar\n");
    return 1;
  }
  return writeJsonReport() ? 0 : 1;
}

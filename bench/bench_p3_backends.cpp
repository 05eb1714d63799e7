//===- bench/bench_p3_backends.cpp - Table P3 ---------------------------------===//
//
// Part of the odburg project.
//
// P3: the paper's three-way comparison as one pipeline table. Part (a)
// runs the end-to-end compile pipeline (label + reduce + emit) over the
// same fixed-cost x86 corpus on all three LabelerBackends x 1/2/4/8
// worker threads, reporting cold and warm functions/sec, the warm phase
// split and shared-cache hit rate — after verifying that every
// (backend, thread count) cell produces byte-identical concatenated
// assembly and an identical total cover cost. Part (b) measures offline
// table generation, sequential vs. parallel, on the 250-operator
// synthesized grammar of the scaling stress test, checking the parallel
// tables' fingerprints against the sequential reference (bit-identity is
// the contract, any thread count).
//
// Note: speedups are bounded by the machine; on a single-core container
// they degenerate to ~1x. The identity checks are unaffected.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "grammar/Synthesize.h"
#include "pipeline/CompileSession.h"
#include "support/RNG.h"

#include <thread>

using namespace odburg;
using namespace odburg::bench;
using namespace odburg::pipeline;
using namespace odburg::workload;

namespace {

SynthesisParams scaleParams() {
  // The 250-operator grammar of tests/integration/GrammarScaleTest; a
  // 50-operator sibling under --smoke (same shape, ~100x cheaper).
  SynthesisParams P;
  P.NumLeafOps = smokeScaled(50, 10);
  P.NumUnaryOps = smokeScaled(80, 16);
  P.NumBinaryOps = smokeScaled(120, 24);
  P.NumNts = 6;
  P.RulesPerOp = 6;
  P.MaxCost = 3;
  P.Seed = 97;
  return P;
}

} // namespace

int main(int Argc, char **Argv) {
  parseBenchArgs(Argc, Argv);
  auto T = cantFail(targets::makeTarget("x86"));

  // ---- (a) End-to-end pipeline throughput, three backends x threads. ----
  std::vector<ir::IRFunction> Corpus;
  for (const char *Name : {"gzip-like", "gcc-like", "twolf-like"}) {
    const Profile *P = findProfile(Name);
    std::vector<ir::IRFunction> Fns = cantFail(
        generateBatch(*P, T->Fixed, /*Count=*/smokeScaled(16, 3),
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

  TablePrinter Table(formatf(
      "P3a. Backend x thread scaling, end-to-end pipeline (x86 fixed "
      "grammar; %llu nodes in %zu functions; hw threads: %u)",
      static_cast<unsigned long long>(TotalNodes), Corpus.size(),
      std::thread::hardware_concurrency()));
  Table.setHeader({"backend", "threads", "cold ms", "warm ms", "warm fn/s",
                   "speedup", "lbl/red/emt %", "hit%", "asm"});

  std::string Reference;
  Cost ReferenceCost = Cost::zero();
  bool HaveReference = false;
  bool AllIdentical = true;
  for (BackendKind Kind :
       {BackendKind::DP, BackendKind::Offline, BackendKind::OnDemand}) {
    double BaselineNs = 0;
    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      CompileSession::Options Opts;
      Opts.Backend = Kind;
      auto SessionOrErr = CompileSession::create(T->Fixed, nullptr, Opts);
      if (!SessionOrErr) {
        std::fprintf(stderr, "FAILURE: %s\n", SessionOrErr.message().c_str());
        return 1;
      }
      CompileSession &Session = **SessionOrErr;

      SessionStats Cold;
      std::vector<CompileResult> Results =
          Session.compileFunctions(Ptrs, Threads, &Cold);
      std::uint64_t ColdNs = Cold.WallNs;

      SessionStats Warm;
      std::uint64_t WarmNs = ~0ULL;
      for (unsigned R = 0; R < smokeScaled(3, 1); ++R) {
        SessionStats Pass;
        Results = Session.compileFunctions(Ptrs, Threads, &Pass);
        if (Pass.WallNs < WarmNs) {
          WarmNs = Pass.WallNs;
          Warm = Pass;
        }
      }

      for (const CompileResult &R : Results)
        if (!R.ok()) {
          std::fprintf(stderr, "FAILURE: %s\n", R.Diagnostic.c_str());
          return 1;
        }

      // Identity across backends AND thread counts: one reference for the
      // whole table.
      std::string Asm = CompileSession::concatAsm(Results);
      Cost TotalCost = CompileSession::totalCost(Results);
      bool Identical = true;
      if (!HaveReference) {
        HaveReference = true;
        Reference = std::move(Asm);
        ReferenceCost = TotalCost;
      } else {
        Identical = Asm == Reference && TotalCost == ReferenceCost;
      }
      AllIdentical = AllIdentical && Identical;

      if (BaselineNs == 0)
        BaselineNs = static_cast<double>(WarmNs);
      double HitPct = Warm.Label.CacheProbes
                          ? 100.0 * static_cast<double>(Warm.Label.CacheHits) /
                                static_cast<double>(Warm.Label.CacheProbes)
                          : 0.0;
      Table.addRow(
          {backendName(Kind), std::to_string(Threads),
           formatFixed(static_cast<double>(ColdNs) / 1e6, 1),
           formatFixed(static_cast<double>(WarmNs) / 1e6, 1),
           formatFixed(static_cast<double>(Corpus.size()) * 1e9 /
                           static_cast<double>(WarmNs),
                       1),
           formatFixed(BaselineNs / static_cast<double>(WarmNs), 2),
           phaseSplit(Warm), formatFixed(HitPct, 1),
           !Identical ? "DIVERGED"
           : (Kind == BackendKind::DP && Threads == 1) ? "reference"
                                                       : "identical"});
    }
    Table.addSeparator();
  }
  Table.print();
  recordTable("p3a_backends", Table);

  // ---- (b) Offline generation: sequential vs. parallel, bit-identical. --
  Grammar Big = cantFail(synthesizeGrammar(scaleParams()));
  TablePrinter Gen(formatf(
      "P3b. Offline table generation, sequential vs. parallel (synthesized "
      "%u-operator grammar)",
      Big.numOperators()));
  Gen.setHeader({"threads", "gen ms", "speedup", "states", "transitions",
                 "tables"});

  std::uint64_t SeqFingerprint = 0;
  double SeqMs = 0;
  bool GenIdentical = true;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    double BestMs = 1e100;
    CompiledTables Tables =
        cantFail(OfflineTableGen(Big).generate(Threads));
    BestMs = Tables.stats().GenerationMs;
    for (unsigned R = 1; R < smokeScaled(3, 1); ++R) {
      CompiledTables Again = cantFail(OfflineTableGen(Big).generate(Threads));
      BestMs = std::min(BestMs, Again.stats().GenerationMs);
      if (Again.fingerprint() != Tables.fingerprint())
        GenIdentical = false;
    }
    std::string Check;
    if (Threads == 1) {
      SeqFingerprint = Tables.fingerprint();
      SeqMs = BestMs;
      Check = "reference";
    } else {
      bool Same = Tables.fingerprint() == SeqFingerprint;
      GenIdentical = GenIdentical && Same;
      Check = Same ? "bit-identical" : "DIVERGED";
    }
    Gen.addRow({std::to_string(Threads), formatFixed(BestMs, 1),
                formatFixed(SeqMs / BestMs, 2),
                formatThousands(Tables.stats().NumStates),
                formatThousands(Tables.stats().NumTransitions), Check});
  }
  std::printf("\n");
  Gen.print();
  recordTable("p3b_offline_gen", Gen);

  std::printf(
      "\nExpected shape (multicore): ondemand warm fn/s within a small "
      "factor of\noffline (probe vs. array index) and well above dp; all "
      "backends emit\nbyte-identical assembly on the fixed grammar; "
      "parallel generation\napproaches the thread count while staying "
      "bit-identical.\n");
  if (!AllIdentical || !GenIdentical) {
    std::fprintf(stderr, "FAILURE: a backend, thread count or generation "
                         "run diverged\n");
    return 1;
  }
  return writeJsonReport() ? 0 : 1;
}

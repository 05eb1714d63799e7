//===- bench/bench_p2_pipeline.cpp - Table P2 ---------------------------------===//
//
// Part of the odburg project.
//
// P2: thread scaling of the end-to-end compile pipeline (label + reduce +
// emit per function) over one CompileService per thread count (x86
// grammar, mixed SPEC-like corpus). P2 measures whole compilations: each
// worker runs all three phases for the functions it pulls, so reduction
// and emission parallelize with labeling instead of serializing after
// it. The table reports cold and warm functions/sec per
// thread count, the warm phase split, and the speedup over one thread —
// after verifying that every thread count produces byte-identical
// concatenated assembly and an identical total cover cost.
//
// Note: speedup is bounded by the machine; on a single-core container all
// thread counts degenerate to ~1x. The correctness check is unaffected.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <thread>

using namespace odburg;
using namespace odburg::bench;
using namespace odburg::pipeline;
using namespace odburg::workload;

int main(int Argc, char **Argv) {
  parseBenchArgs(Argc, Argv);
  auto T = cantFail(targets::makeTarget("x86"));

  // A mixed corpus: three profiles, many medium functions each.
  std::vector<ir::IRFunction> Corpus;
  for (const char *Name : {"gzip-like", "gcc-like", "twolf-like"}) {
    const Profile *P = findProfile(Name);
    std::vector<ir::IRFunction> Fns = cantFail(
        generateBatch(*P, T->G, /*Count=*/smokeScaled(24, 4),
                      /*TargetNodes=*/smokeScaled(4000, 500)));
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
      "P2. Thread scaling, end-to-end compile pipeline (x86; %llu nodes in "
      "%zu functions; hw threads: %u)",
      static_cast<unsigned long long>(TotalNodes), Corpus.size(),
      std::thread::hardware_concurrency()));
  Table.setHeader({"threads", "cold ms", "warm ms", "cold fn/s", "warm fn/s",
                   "speedup", "lbl/red/emt %", "asm"});

  std::string Reference;
  Cost ReferenceCost = Cost::zero();
  double BaselineNs = 0;
  bool AllIdentical = true;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    CompileService::Options Opts;
    Opts.Workers = Threads;
    auto Svc = cantFail(CompileService::create(T->G, &T->Dyn, Opts));

    std::uint64_t ColdNs = 0;
    std::vector<CompileResult> Results = timedPass(*Svc, Ptrs, ColdNs);

    std::uint64_t WarmNs = ~0ULL;
    for (unsigned R = 0; R < 3; ++R) {
      std::uint64_t PassNs = 0;
      std::vector<CompileResult> Pass = timedPass(*Svc, Ptrs, PassNs);
      if (PassNs < WarmNs) {
        WarmNs = PassNs;
        Results = std::move(Pass);
      }
    }

    for (const CompileResult &R : Results)
      if (!R.ok()) {
        std::fprintf(stderr, "FAILURE: %s\n", R.Diagnostic.c_str());
        return 1;
      }

    // The built-in bit-identity check: concatenated assembly and total
    // cost must match the single-thread reference exactly.
    std::string Asm = concatAsm(Results);
    Cost TotalCost = totalCost(Results);
    bool Identical = true;
    if (Threads == 1) {
      Reference = std::move(Asm);
      ReferenceCost = TotalCost;
    } else {
      Identical = Asm == Reference && TotalCost == ReferenceCost;
    }
    AllIdentical = AllIdentical && Identical;

    if (BaselineNs == 0)
      BaselineNs = static_cast<double>(WarmNs);
    Table.addRow(
        {std::to_string(Threads),
         formatFixed(static_cast<double>(ColdNs) / 1e6, 1),
         formatFixed(static_cast<double>(WarmNs) / 1e6, 1),
         formatFixed(static_cast<double>(Corpus.size()) * 1e9 /
                         static_cast<double>(ColdNs),
                     1),
         formatFixed(static_cast<double>(Corpus.size()) * 1e9 /
                         static_cast<double>(WarmNs),
                     1),
         formatFixed(BaselineNs / static_cast<double>(WarmNs), 2),
         labelReduceEmitSplit(Results),
         Identical ? (Threads == 1 ? "reference" : "identical")
                   : "DIVERGED"});
  }
  Table.print();
  recordTable("p2_pipeline", Table);
  std::printf("\nExpected shape (multicore): warm speedup approaching the "
              "thread count —\nreduce and emit scale with labeling because "
              "each worker compiles whole\nfunctions; the asm column must "
              "never read DIVERGED.\n");
  if (!AllIdentical) {
    std::fprintf(stderr, "FAILURE: a thread count diverged from the serial "
                         "assembly\n");
    return 1;
  }
  return writeJsonReport() ? 0 : 1;
}

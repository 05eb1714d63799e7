//===- examples/jit_compiler.cpp - a JIT-style compilation loop --------------===//
//
// Part of the odburg project.
//
// Plays the role the CACAO second stage plays in the papers: feed a
// stream of methods (the MiniC corpus) through one persistent
// CompileService and watch its automaton warm up — states are only
// created for the first few methods, after which labeling is pure cache
// hits and each method costs label + reduce + emit with no table growth.
//
// Where the old batch loop compiled one method at a time, this is the
// service shape a real JIT has: methods are *submitted* as they arrive
// and the ordered streaming sink consumes each method's code the moment
// it is ready — while later methods are still queued or compiling. One
// worker keeps the warm-up narrative exact (each row's "new states" is
// attributable to its method); the API is the same at any pool size.
//
//===----------------------------------------------------------------------===//

#include "pipeline/CompileService.h"
#include "support/StringUtil.h"
#include "support/TablePrinter.h"
#include "targets/Target.h"
#include "workload/Corpus.h"

#include <cstdio>
#include <memory>
#include <vector>

using namespace odburg;
using namespace odburg::pipeline;
using namespace odburg::workload;

int main() {
  auto T = cantFail(targets::makeTarget("vm64"));

  TablePrinter Table("JIT compilation with a persistent compile service "
                     "(target: vm64)");
  Table.setHeader({"method", "IR nodes", "asm instrs", "cost", "states total",
                   "new states", "hit rate %"});

  // Lower the whole corpus up front (the "bytecode" arriving at the JIT);
  // the functions must outlive their in-flight compilations.
  std::vector<std::string> Names;
  std::vector<ir::IRFunction> Methods;
  for (const CorpusProgram &P : corpus()) {
    Names.push_back(P.Name);
    Methods.push_back(cantFail(compileCorpusProgram(P, T->G)));
  }

  // Declared before the options so the streaming sink can observe the
  // service's shared automaton; the sink only fires after submissions,
  // long after the pointer is set.
  std::unique_ptr<CompileService> Service;
  bool AnyFailed = false;
  unsigned PrevStates = 0;
  CompileService::Options Opts;
  Opts.Workers = 1;
  Opts.QueueCapacity = 4; // Small bound: results stream while we submit.
  Opts.OnResult = [&](std::size_t Seq, const CompileResult &R) {
    if (Seq >= Names.size())
      return; // The demo submission after the table (Fact, below).
    if (!R.ok()) {
      std::fprintf(stderr, "error compiling %s: %s\n", Names[Seq].c_str(),
                   R.Diagnostic.c_str());
      AnyFailed = true;
      return;
    }
    // Fired in submission order from the worker thread; with one worker
    // the automaton's growth since the previous row belongs to this
    // method alone.
    unsigned States =
        static_cast<const OnDemandBackend &>(Service->backend())
            .automaton()
            .numStates();
    // Transition-cache probes answered without computing a state.
    double HitRate = R.Stats.CacheProbes
                         ? 100.0 * static_cast<double>(R.Stats.CacheHits) /
                               static_cast<double>(R.Stats.CacheProbes)
                         : 0.0;
    Table.addRow({Names[Seq], std::to_string(Methods[Seq].size()),
                  std::to_string(R.Instructions),
                  std::to_string(R.Sel.TotalCost.value()),
                  std::to_string(States),
                  std::to_string(States - PrevStates),
                  formatFixed(HitRate, 1)});
    PrevStates = States;
  };
  Service = cantFail(CompileService::create(T->G, &T->Dyn, std::move(Opts)));

  for (ir::IRFunction &M : Methods)
    cantFail(Service->submit(M));
  Service->drain();
  Table.print();
  if (AnyFailed)
    return 1;

  // Show the code for one small method, as a JIT log would — the future
  // side of the API: submit, then block on exactly that result.
  const CorpusProgram *Fact = findCorpusProgram("Fact");
  ir::IRFunction F = cantFail(compileCorpusProgram(*Fact, T->G));
  std::future<CompileResult> Code = cantFail(Service->submit(F));
  CompileResult R = Code.get();
  if (!R.ok()) {
    std::fprintf(stderr, "error compiling Fact: %s\n", R.Diagnostic.c_str());
    return 1;
  }
  std::printf("\ngenerated code for Fact:\n%s", R.Asm.c_str());
  Service->shutdown();
  return 0;
}

//===- pipeline/CompileSession.cpp - Batch compilation compatibility ------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "pipeline/CompileSession.h"

#include "support/ErrorHandling.h"
#include "support/Timer.h"
#include "targets/Target.h"

#include <algorithm>
#include <thread>

using namespace odburg;
using namespace odburg::pipeline;

CompileSession::CompileSession(const Grammar &G, const DynCostTable *Dyn)
    : CompileSession(G, Dyn, Options()) {}

CompileSession::CompileSession(const Grammar &G, const DynCostTable *Dyn,
                               Options Opts)
    : G(G), Dyn(Dyn), Opts(Opts) {
  Expected<std::unique_ptr<LabelerBackend>> Backend =
      LabelerBackend::create(Opts.Backend, G, Dyn, Opts.BackendOpts);
  if (!Backend)
    reportFatalError(Backend.message().c_str());
  B = std::move(*Backend);
}

CompileSession::CompileSession(const Grammar &G, const DynCostTable *Dyn,
                               Options Opts,
                               std::unique_ptr<LabelerBackend> Backend)
    : G(G), Dyn(Dyn), Opts(Opts), B(std::move(Backend)) {}

CompileSession::CompileSession(const targets::Target &T)
    : CompileSession(T.G, &T.Dyn) {}

CompileSession::~CompileSession() = default;

Expected<std::unique_ptr<CompileSession>>
CompileSession::create(const Grammar &G, const DynCostTable *Dyn,
                       Options Opts) {
  Expected<std::unique_ptr<LabelerBackend>> Backend =
      LabelerBackend::create(Opts.Backend, G, Dyn, Opts.BackendOpts);
  if (!Backend)
    return Backend.takeError();
  return std::unique_ptr<CompileSession>(
      new CompileSession(G, Dyn, Opts, std::move(*Backend)));
}

CompileResult CompileSession::compileFunction(ir::IRFunction &F) {
  CompileResult Out;
  compileFunctionWith(G, Dyn, *B, F, Serial, Out);
  return Out;
}

CompileService &CompileSession::serviceFor(unsigned Threads) {
  if (!Svc) {
    CompileService::Options SvcOpts;
    SvcOpts.Workers = Threads;
    Svc = std::make_unique<CompileService>(G, Dyn, *B, SvcOpts);
  } else if (Svc->workers() != Threads) {
    Svc->resizeWorkers(Threads);
  }
  return *Svc;
}

std::vector<CompileResult>
CompileSession::compileFunctions(std::span<ir::IRFunction *const> Fns,
                                 unsigned Threads, SessionStats *Stats) {
  Stopwatch Wall;
  if (Threads == 0)
    Threads = Opts.Threads;
  if (Threads == 0)
    Threads = std::max(1u, std::thread::hardware_concurrency());
  Threads = static_cast<unsigned>(std::min<std::size_t>(Threads, Fns.size()));
  Threads = std::max(Threads, 1u);

  // The batch call in service terms: submit everything in corpus order,
  // wait for every future. In-order delivery makes the futures complete
  // front to back, so the collection loop below finishes roughly as the
  // last function does.
  CompileService &Service = serviceFor(Threads);
  Expected<std::vector<std::future<CompileResult>>> Futures =
      Service.submitBatch(Fns);
  if (!Futures)
    reportFatalError(Futures.message().c_str()); // Session never shuts
                                                 // its own service down.
  std::vector<CompileResult> Results(Fns.size());
  for (std::size_t I = 0; I < Futures->size(); ++I)
    Results[I] = (*Futures)[I].get();

  if (Stats) {
    for (const CompileResult &R : Results) {
      Stats->Label += R.Stats;
      Stats->LabelNs += R.LabelNs;
      Stats->ReduceNs += R.ReduceNs;
      Stats->EmitNs += R.EmitNs;
      ++Stats->Functions;
      if (!R.ok()) {
        ++Stats->Failed;
        continue;
      }
      Stats->Instructions += R.Instructions;
      Stats->AsmBytes += R.Asm.size();
      Stats->TotalCost += R.Sel.TotalCost;
    }
    Stats->WallNs += Wall.elapsedNs();
    Stats->BackendBytes = B->memoryBytes();
  }
  return Results;
}

std::string
CompileSession::concatAsm(const std::vector<CompileResult> &Results) {
  std::size_t Bytes = 0;
  for (const CompileResult &R : Results)
    Bytes += R.Asm.size();
  std::string Out;
  Out.reserve(Bytes);
  for (const CompileResult &R : Results)
    Out += R.Asm;
  return Out;
}

Cost CompileSession::totalCost(const std::vector<CompileResult> &Results) {
  Cost Total = Cost::zero();
  for (const CompileResult &R : Results)
    if (R.ok())
      Total += R.Sel.TotalCost;
  return Total;
}

std::string odburg::pipeline::phaseSplit(const SessionStats &S) {
  double Total = static_cast<double>(S.LabelNs) +
                 static_cast<double>(S.ReduceNs) +
                 static_cast<double>(S.EmitNs);
  if (Total == 0)
    return "-";
  auto Pct = [Total](std::uint64_t Ns) {
    return static_cast<unsigned>(100.0 * static_cast<double>(Ns) / Total +
                                 0.5);
  };
  return std::to_string(Pct(S.LabelNs)) + "/" + std::to_string(Pct(S.ReduceNs)) +
         "/" + std::to_string(Pct(S.EmitNs));
}

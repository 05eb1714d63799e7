//===- perfbench/src/Decompose.cpp - Single-thread layer decomposition ----===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "Host.h"
#include "Workloads.h"

#include "ir/SExprParser.h"
#include "select/LabelerBackend.h"
#include "support/Timer.h"
#include "targets/AsmEmitter.h"

using namespace odburg;

namespace perfbench {

namespace {

/// Span names of one decomposition pass; the cold pass gets its own set
/// so its labeling cost (state construction) stays apart.
struct PassNames {
  const char *Fn, *Parse, *Label, *Reduce, *Emit;
};
constexpr PassNames ColdNames{"cold.function", "cold.parse", "cold.label",
                              "cold.reduce", "cold.emit"};
constexpr PassNames WarmNames{"function", "parse", "label", "reduce", "emit"};

/// Parses, labels, reduces and emits every corpus function once; returns
/// the number of results that differ from the reference.
/// The parsed copy is checked and discarded; the corpus function itself
/// is compiled, as the pipeline compiles it.
std::uint64_t pass(const Grammar &G, const DynCostTable *Dyn,
                   LabelerBackend &B, std::vector<ir::IRFunction> &Corpus,
                   const std::vector<std::string> &Wire,
                   const std::vector<Reference> &Refs, bool CheckRules,
                   Trace &T, const PassNames &N) {
  LabelerScratch LS;
  ReductionScratch RS;
  targets::AsmBuffer Buf;
  std::uint64_t Failed = 0;
  for (std::size_t I = 0; I < Wire.size(); ++I) {
    ir::IRFunction &F = Corpus[I];
    std::uint32_t Fn = T.open(N.Fn, I, 0, nowNs());
    ir::IRFunction Parsed;
    std::uint64_t T0 = nowNs();
    Error PE = ir::parseSExprProgram(Wire[I], G, Parsed);
    std::uint64_t T1 = nowNs();
    T.record(N.Parse, I, Fn, T0, T1);
    if (PE || Parsed.size() != F.size()) {
      ++Failed;
      T.close(Fn, nowNs());
      continue;
    }
    const Labeling &L = B.labelFunction(F, LS);
    std::uint64_t T2 = nowNs();
    T.record(N.Label, I, Fn, T1, T2);
    Expected<Selection> S = reduce(G, F, L, Dyn, RS);
    std::uint64_t T3 = nowNs();
    T.record(N.Reduce, I, Fn, T2, T3);
    if (!S) {
      ++Failed;
      T.close(Fn, nowNs());
      continue;
    }
    Buf.clear();
    Error EE = targets::emitAsm(G, F, *S, Buf);
    std::uint64_t T4 = nowNs();
    T.record(N.Emit, I, Fn, T3, T4);
    T.close(Fn, T4);
    if (EE || !matches(Refs[I], Buf.Text, &*S, CheckRules))
      ++Failed;
  }
  return Failed;
}

} // namespace

Decomposition decompose(Inputs &In, const std::vector<Reference> &Refs,
                        bool CheckRules, Trace &T, unsigned WarmPasses) {
  const Grammar &G = In.G.grammar();
  const DynCostTable *Dyn = In.G.dyn();
  std::vector<std::string> Wire;
  double WireBytes = 0, AsmBytes = 0;
  for (std::size_t I = 0; I < In.Corpus.size(); ++I) {
    Wire.push_back(toWire(In.Corpus[I], G));
    WireBytes += static_cast<double>(Wire.back().size());
    AsmBytes += static_cast<double>(Refs[I].Asm.size());
  }
  Decomposition D;
  Expected<std::unique_ptr<LabelerBackend>> B =
      LabelerBackend::create(BackendKind::OnDemand, G, Dyn);
  if (!B) {
    D.Failed = In.Corpus.size();
    return D;
  }
  D.Failed += pass(G, Dyn, **B, In.Corpus, Wire, Refs, CheckRules, T, ColdNames);
  for (unsigned P = 0; P < WarmPasses; ++P)
    D.Failed += pass(G, Dyn, **B, In.Corpus, Wire, Refs, CheckRules, T, WarmNames);

  std::map<std::string, double> Self = T.selfTimeNs();
  double Nodes = static_cast<double>(In.Nodes);
  double Warm = static_cast<double>(WarmPasses);
  double Label = Self["label"], Reduce = Self["reduce"], Emit = Self["emit"];
  D.FirstLabelNsPerNode = Self["cold.label"] / Nodes;
  D.LabelNsPerNode = Label / (Nodes * Warm);
  D.ReduceNsPerNode = Reduce / (Nodes * Warm);
  D.EmitNsPerByte = AsmBytes > 0 ? Emit / (AsmBytes * Warm) : 0.0;
  D.EmitShare = Emit / (Label + Reduce + Emit);
  D.ParseNsPerByte = Self["parse"] / (WireBytes * Warm);
  D.NodesPerSec = Nodes * Warm / ((Label + Reduce + Emit) / 1e9);
  return D;
}

void recordWork(RunResult &R, const Inputs &In,
                const std::vector<Reference> &Refs) {
  std::uint64_t AsmBytes = 0;
  for (const Reference &Ref : Refs)
    AsmBytes += Ref.Asm.size();
  R.set("work.functions", static_cast<double>(In.Corpus.size()), "count");
  R.set("work.nodes", static_cast<double>(In.Nodes), "count");
  R.set("work.asm_bytes", static_cast<double>(AsmBytes), "bytes");
  R.set("host.nproc", processorCount(), "count");
}

} // namespace perfbench

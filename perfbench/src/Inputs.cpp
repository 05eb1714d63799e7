//===- perfbench/src/Inputs.cpp - Seeded workload inputs ------------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "grammar/Synthesize.h"
#include "support/RNG.h"
#include "workload/Synthetic.h"

#include <algorithm>
#include <cmath>

using namespace odburg;

namespace perfbench {

namespace {

/// Mixed x86 corpus profiles: integer compression, a compiler, and a
/// multiply-heavy placement code.
constexpr const char *X86Profiles[] = {"gzip-like", "gcc-like", "twolf-like"};

/// Independent streams from one seed, one per input kind.
std::uint64_t subSeed(std::uint64_t Seed, std::uint64_t Stream) {
  RNG R(Seed * 0x9e3779b97f4a7c15ULL + Stream);
  return R.next();
}

/// \p N sizes at evenly spaced quantiles of the log-uniform distribution
/// on [Lo, Hi], in seeded random order. As many small functions per octave
/// as large ones, so head-of-line waits behind big functions show; and the
/// same size mix for every seed, so seeds differ in content, not in load.
std::vector<unsigned> stratifiedSizes(RNG &R, unsigned N, unsigned Lo,
                                      unsigned Hi) {
  std::vector<unsigned> Sizes(N);
  for (unsigned I = 0; I < N; ++I) {
    double Q = (I + 0.5) / N;
    Sizes[I] = static_cast<unsigned>(std::lround(
        std::exp(std::log(Lo) + Q * (std::log(Hi) - std::log(Lo)))));
  }
  for (unsigned I = N; I > 1; --I)
    std::swap(Sizes[I - 1], Sizes[R.nextBelow(I)]);
  return Sizes;
}

Expected<ir::IRFunction> x86Function(const Grammar &G, RNG &R,
                                     const char *ProfileName, unsigned Nodes) {
  workload::Profile P = *workload::findProfile(ProfileName);
  P.Seed = R.next();
  P.TargetNodes = Nodes;
  return workload::generate(P, G);
}

/// \p N x86 functions with stratified sizes in [Lo, Hi]; the three
/// profiles take turns along the size order, so every size range (the
/// largest functions too) holds each profile equally for every seed.
Error fillX86(Inputs &In, RNG &R, unsigned N, unsigned Lo, unsigned Hi) {
  std::vector<unsigned> Sizes = stratifiedSizes(R, N, Lo, Hi);
  std::vector<unsigned> BySize(N), Rank(N);
  for (unsigned I = 0; I < N; ++I)
    BySize[I] = I;
  std::stable_sort(BySize.begin(), BySize.end(),
                   [&](unsigned A, unsigned B) { return Sizes[A] < Sizes[B]; });
  for (unsigned I = 0; I < N; ++I)
    Rank[BySize[I]] = I;
  for (unsigned I = 0; I < N; ++I) {
    Expected<ir::IRFunction> F = x86Function(
        In.G.grammar(), R, X86Profiles[Rank[I] % std::size(X86Profiles)],
        Sizes[I]);
    if (!F)
      return F.takeError();
    In.Nodes += F->size();
    In.Corpus.push_back(std::move(*F));
  }
  return Error::success();
}

/// \p N functions of random subject trees over the synthesized grammar,
/// each one to four statement trees sharing a stratified node budget.
void fillSynth(Inputs &In, RNG &R, unsigned N) {
  std::vector<unsigned> Budgets = stratifiedSizes(R, N, 20, 1200);
  for (unsigned I = 0; I < N; ++I) {
    ir::IRFunction F;
    unsigned Roots = 1 + I % 4;
    for (unsigned J = 0; J < Roots; ++J)
      F.addRoot(workload::synthesizeTree(In.G.grammar(), F, R,
                                         Budgets[I] / Roots));
    In.Nodes += F.size();
    In.Corpus.push_back(std::move(F));
  }
}

} // namespace

bool parseWorkload(std::string_view Name, WorkloadKind &Out) {
  for (WorkloadKind K :
       {WorkloadKind::WarmX86, WorkloadKind::ColdSynth, WorkloadKind::ServeX86})
    if (Name == workloadName(K)) {
      Out = K;
      return true;
    }
  return false;
}

const char *workloadName(WorkloadKind K) {
  switch (K) {
  case WorkloadKind::WarmX86:
    return "warm_x86";
  case WorkloadKind::ColdSynth:
    return "cold_synth";
  case WorkloadKind::ServeX86:
    return "serve_x86";
  }
  return "?";
}

Expected<GrammarBundle> buildGrammar(WorkloadKind K, std::uint64_t Seed) {
  GrammarBundle B;
  if (K != WorkloadKind::ColdSynth) {
    Expected<std::unique_ptr<targets::Target>> T = targets::makeTarget("x86");
    if (!T)
      return T.takeError();
    B.Target = std::move(*T);
    return B;
  }
  // Large enough that the automaton builds well over 10k states, so the
  // transition working set overflows the 1024-entry L1 and the dense tier.
  SynthesisParams P;
  P.NumLeafOps = 6;
  P.NumUnaryOps = 8;
  P.NumBinaryOps = 8;
  P.NumNts = 6;
  P.RulesPerOp = 16;
  P.Seed = subSeed(Seed, 1);
  Expected<Grammar> G = synthesizeGrammar(P);
  if (!G)
    return G.takeError();
  B.Synth = std::make_unique<Grammar>(std::move(*G));
  return B;
}

Expected<Inputs> makeInputs(WorkloadKind K, std::uint64_t Seed, bool Smoke) {
  Inputs In;
  Expected<GrammarBundle> G = buildGrammar(K, Seed);
  if (!G)
    return G.takeError();
  In.G = std::move(*G);
  RNG R(subSeed(Seed, 2));
  RNG OracleR(subSeed(Seed, 3));
  switch (K) {
  case WorkloadKind::WarmX86:
    if (Error E = fillX86(In, R, Smoke ? 48 : 240, 50, 8000))
      return E;
    break;
  case WorkloadKind::ServeX86:
    if (Error E = fillX86(In, R, Smoke ? 64 : 512, 20, 400))
      return E;
    break;
  case WorkloadKind::ColdSynth:
    fillSynth(In, R, Smoke ? 64 : 880);
    break;
  }
  for (unsigned I = 0; I < 6; ++I) {
    if (K == WorkloadKind::ColdSynth) {
      ir::IRFunction F;
      F.addRoot(workload::synthesizeTree(In.G.grammar(), F, OracleR, 7));
      In.OracleSample.push_back(std::move(F));
      continue;
    }
    Expected<ir::IRFunction> F =
        x86Function(In.G.grammar(), OracleR, X86Profiles[I % 3], 16);
    if (!F)
      return F.takeError();
    In.OracleSample.push_back(std::move(*F));
  }
  return In;
}

std::string toWire(const ir::IRFunction &F, const Grammar &G) {
  std::string Out;
  for (const ir::Node *Root : F.roots()) {
    Out += ir::toSExpr(Root, G);
    Out += '\n';
  }
  Out += '\n';
  return Out;
}

std::uint64_t fingerprint(const std::vector<ir::IRFunction> &Fns,
                          const Grammar &G) {
  std::uint64_t H = 1469598103934665603ULL; // FNV-1a
  for (const ir::IRFunction &F : Fns)
    for (char C : toWire(F, G)) {
      H ^= static_cast<unsigned char>(C);
      H *= 1099511628211ULL;
    }
  return H;
}

} // namespace perfbench

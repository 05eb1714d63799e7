//===- perfbench/src/SelfTest.cpp - The benchmark's own checks ------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// odburg-perfbench --self-test: checks the benchmark itself, not odburg.
///   - the same seed gives identical inputs and work counts, and another
///     seed gives different inputs, for every workload;
///   - the checkers catch a single corrupted byte in a result, in-process
///     and in the streamed server response;
///   - the percentile helper reports its sample count and refuses a
///     percentile without at least ten samples beyond it;
///   - span self time subtracts the union of the children's intervals.
///
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Trace.h"
#include "Workloads.h"

#include <cstdio>

using namespace odburg;

namespace perfbench {

namespace {

int Failures = 0;

void expect(bool Cond, const char *What) {
  std::printf("%s: %s\n", Cond ? "ok  " : "FAIL", What);
  if (!Cond)
    ++Failures;
}

struct Work {
  std::uint64_t Fingerprint = 0, Nodes = 0, AsmBytes = 0;
  std::size_t Functions = 0;
  bool Ok = false;
};

Work work(WorkloadKind K, std::uint64_t Seed) {
  Work W;
  Expected<Inputs> In = makeInputs(K, Seed, /*Smoke=*/true);
  if (!In)
    return W;
  Expected<std::vector<Reference>> Refs =
      computeReference(In->G.grammar(), In->G.dyn(), In->Corpus);
  if (!Refs)
    return W;
  W.Fingerprint = fingerprint(In->Corpus, In->G.grammar()) ^
                  fingerprint(In->OracleSample, In->G.grammar());
  W.Nodes = In->Nodes;
  W.Functions = In->Corpus.size();
  for (const Reference &R : *Refs)
    W.AsmBytes += R.Asm.size();
  W.Ok = true;
  return W;
}

void testSeeds() {
  for (WorkloadKind K : {WorkloadKind::WarmX86, WorkloadKind::ColdSynth,
                         WorkloadKind::ServeX86}) {
    Work A = work(K, 7), B = work(K, 7), C = work(K, 8);
    std::string Name = workloadName(K);
    expect(A.Ok && B.Ok && C.Ok, (Name + ": inputs generate").c_str());
    expect(A.Fingerprint == B.Fingerprint && A.Nodes == B.Nodes &&
               A.Functions == B.Functions && A.AsmBytes == B.AsmBytes,
           (Name + ": same seed, identical inputs and work counts").c_str());
    expect(A.Fingerprint != C.Fingerprint,
           (Name + ": another seed, different inputs").c_str());
  }
}

void testCheckers() {
  Expected<Inputs> In = makeInputs(WorkloadKind::ServeX86, 3, true);
  if (!In) {
    expect(false, "checker inputs generate");
    return;
  }
  Expected<std::vector<Reference>> RefsE =
      computeReference(In->G.grammar(), In->G.dyn(), In->Corpus);
  if (!RefsE) {
    expect(false, "checker reference computes");
    return;
  }
  const std::vector<Reference> &Refs = *RefsE;
  const Reference &R = Refs[0];
  expect(matches(R, R.Asm, nullptr, false), "reference matches itself");
  bool AllCaught = true;
  for (std::size_t At = 0; At < R.Asm.size(); At += 7) {
    std::string Bad = R.Asm;
    Bad[At] ^= 0x01;
    AllCaught &= !matches(R, Bad, nullptr, false);
  }
  expect(AllCaught, "in-process check catches any single corrupted byte");

  // The streamed response: three blocks, fed a byte at a time.
  std::string Stream = Refs[0].Asm + Refs[1].Asm + Refs[2].Asm;
  auto Feed = [&](const std::string &Bytes, std::size_t Chunk,
                  std::vector<std::pair<std::size_t, bool>> &Done) {
    ResponseChecker C;
    for (std::size_t I = 0; I < 3; ++I)
      C.expect(I, &Refs[I].Asm);
    for (std::size_t I = 0; I < Bytes.size(); I += Chunk)
      C.feed(std::string_view(Bytes).substr(I, Chunk), Done);
    return C.pending();
  };
  std::vector<std::pair<std::size_t, bool>> Done;
  std::size_t Left = Feed(Stream, 1, Done);
  expect(Left == 0 && Done.size() == 3 && Done[0].second && Done[1].second &&
             Done[2].second,
         "stream check passes the exact bytes, split anywhere");
  std::string Bad = Stream;
  Bad[Refs[0].Asm.size() + Refs[1].Asm.size() / 2] ^= 0x20;
  Done.clear();
  Feed(Bad, 64, Done);
  expect(Done.size() == 3 && Done[0].second && !Done[1].second &&
             !Done[2].second,
         "stream check fails the block with a corrupted byte, and the rest");
  Done.clear();
  Feed(Refs[0].Asm + "ERROR ResourceExhausted: full; seq=1 retry-after-ms=50\n" +
           Refs[2].Asm,
       5, Done);
  expect(Done.size() == 3 && Done[0].second && !Done[1].second &&
             Done[2].second,
         "stream check fails a shed frame and keeps the others");
}

void testPercentiles() {
  std::vector<double> V;
  for (int I = 1; I <= 1000; ++I)
    V.push_back(I);
  Percentile Q = percentile(V, 99);
  expect(Q.Valid && Q.Samples == 1000 && Q.Beyond == 10 && Q.Value == 990,
         "p99 of 1000 samples: 990, 10 beyond, count reported");
  V.pop_back();
  Q = percentile(V, 99);
  expect(!Q.Valid && Q.Samples == 999, "p99 of 999 samples refused");
  std::vector<double> W(V.begin(), V.begin() + 20);
  expect(percentile(W, 50).Valid, "p50 of 20 samples accepted");
  W.pop_back();
  expect(!percentile(W, 50).Valid, "p50 of 19 samples refused");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5, "median");
  expect(lowerQuartile({5, 1, 4, 2, 3}) == 2 &&
             lowerQuartile({4, 1, 3, 2}) == 1.75,
         "lower quartile");
  std::vector<std::size_t> Keep = cleanestHalf({0.3, 0.0, 0.2, 0.1, 0.5});
  expect(Keep == std::vector<std::size_t>{1, 2, 3},
         "cleanest half keeps the least-stolen samples");
}

void testSelfTime() {
  Trace T(true, 16);
  std::uint32_t P = T.record("parent", 1, 0, 100, 200);
  T.record("child", 1, P, 110, 150);
  T.record("child", 1, P, 140, 160); // Overlaps the first child.
  T.record("child", 1, P, 190, 230); // Runs past the parent's end.
  std::map<std::string, double> Self = T.selfTimeNs();
  expect(Self["parent"] == 100 - 50 - 10 && Self["child"] == 40 + 20 + 40,
         "self time subtracts the union of child intervals");

  Trace Full(true, 2);
  Full.record("a", 1, 0, 0, 1);
  Full.record("b", 1, 0, 1, 2);
  expect(Full.record("c", 1, 0, 2, 3) == 0 && Full.size() == 2 &&
             Full.dropped() == 1,
         "a full trace counts the span it drops");
}

} // namespace

int runSelfTest() {
  Failures = 0;
  testPercentiles();
  testSelfTime();
  testCheckers();
  testSeeds();
  std::printf("%d failure(s)\n", Failures);
  return Failures;
}

} // namespace perfbench

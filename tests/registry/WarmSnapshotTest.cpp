//===- tests/registry/WarmSnapshotTest.cpp --------------------------------===//
//
// Part of the odburg project.
//
// The warm-snapshot persistence format (registry/WarmSnapshot.h) under
// friendly and hostile input: a clean round trip restores every state and
// memoized transition; truncation at EVERY byte boundary and bit flips
// anywhere in the file yield a typed MalformedInput and leave the
// automaton untouched (the ASan+UBSan CI job runs this binary — "never
// UB" is asserted, not assumed); a snapshot never loads against the wrong
// grammar or stale hybrid tables; and the registry-load fault site fails
// the load exactly like corruption would.
//
//===----------------------------------------------------------------------===//

#include "registry/WarmSnapshot.h"

#include "core/OnDemandAutomaton.h"
#include "select/DPLabeler.h"
#include "select/LabelerBackend.h"
#include "support/FaultInjection.h"
#include "support/Hashing.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

using namespace odburg;
using namespace odburg::registry;

namespace {

struct Fixture {
  Grammar G;
  DynCostTable Dyn;

  Fixture()
      : G(cantFail(parseGrammar(test::runningExampleText()))),
        Dyn(cantFail(DynCostTable::build(G, test::runningExampleHooks()))) {}
};

/// A freshly created hybrid backend over the fixture's grammar.
std::unique_ptr<LabelerBackend> makeHybrid(const Fixture &FX) {
  return cantFail(LabelerBackend::create(BackendKind::Hybrid, FX.G, &FX.Dyn));
}

/// The on-demand automaton inside an on-demand or hybrid backend.
OnDemandAutomaton &automatonOf(LabelerBackend &B) {
  return static_cast<OnDemandBackend &>(B).automaton();
}

/// Labels a deterministic mixed corpus so the automaton holds several
/// states and memoized transitions worth snapshotting.
void warmUp(OnDemandAutomaton &A, const Grammar &G) {
  {
    ir::IRFunction F;
    test::buildStoreTree(F, G, 0, 0, 1); // memop hook applies
    A.labelFunction(F);
  }
  {
    ir::IRFunction F;
    test::buildStoreTree(F, G, 0, 2, 1); // memop hook rejects
    A.labelFunction(F);
  }
  for (std::uint64_t Seed : {7u, 21u, 99u}) {
    ir::IRFunction F;
    test::RandomTreeBuilder B(G, Seed);
    F.addRoot(B.build(F, 40));
    A.labelFunction(F);
  }
}

std::string snapshotBlob(const OnDemandAutomaton &A, const Grammar &G) {
  std::stringstream SS(std::ios::in | std::ios::out | std::ios::binary);
  cantFail(dumpWarmSnapshot(A, G, SS));
  return SS.str();
}

Expected<WarmSnapshotStats> loadBlob(OnDemandAutomaton &A, const Grammar &G,
                                     const std::string &Blob) {
  std::istringstream IS(Blob);
  return loadWarmSnapshot(A, G, IS);
}

/// Header layout of the v1 format: 8-byte magic, u32 version, u64
/// fingerprint, u32 numNts, u32 numStates, u64 numTransitions,
/// u64 payloadWords, then the u64 checksum at 44 and the payload at 52.
constexpr std::size_t ChecksumOff = 8 + 4 + 8 + 4 + 4 + 8 + 8;
constexpr std::size_t PayloadOff = ChecksumOff + 8;
constexpr std::uint64_t ChecksumSeed = 0x0DB09A28u;

/// Rewrites the stored checksum to match the (possibly tampered) payload,
/// so tests can reach the validation layers *behind* the checksum.
void resealChecksum(std::string &Blob) {
  ASSERT_GE(Blob.size(), PayloadOff);
  ASSERT_EQ((Blob.size() - PayloadOff) % sizeof(std::uint32_t), 0u);
  std::vector<std::uint32_t> Payload((Blob.size() - PayloadOff) /
                                     sizeof(std::uint32_t));
  std::memcpy(Payload.data(), Blob.data() + PayloadOff,
              Blob.size() - PayloadOff);
  std::uint64_t Sum = hashRange(Payload.data(),
                                Payload.data() + Payload.size(), ChecksumSeed);
  std::memcpy(Blob.data() + ChecksumOff, &Sum, sizeof(Sum));
}

} // namespace

TEST(WarmSnapshot, RoundTripRestoresStatesAndTransitions) {
  Fixture FX;
  OnDemandAutomaton Warm(FX.G, &FX.Dyn);
  warmUp(Warm, FX.G);
  ASSERT_GT(Warm.numStates(), 0u);
  ASSERT_GT(Warm.numTransitions(), 0u);
  std::string Blob = snapshotBlob(Warm, FX.G);

  OnDemandAutomaton Fresh(FX.G, &FX.Dyn);
  WarmSnapshotStats S = cantFail(loadBlob(Fresh, FX.G, Blob));
  EXPECT_EQ(S.NumStates, Warm.numStates());
  EXPECT_EQ(S.NumTransitions, Warm.numTransitions());
  EXPECT_EQ(Fresh.numStates(), Warm.numStates());
  EXPECT_EQ(Fresh.numTransitions(), Warm.numTransitions());

  // The restored automaton is genuinely warm: replaying the same corpus
  // creates no new states or transitions, and labels correctly.
  unsigned States = Fresh.numStates();
  std::size_t Transitions = Fresh.numTransitions();
  warmUp(Fresh, FX.G);
  EXPECT_EQ(Fresh.numStates(), States);
  EXPECT_EQ(Fresh.numTransitions(), Transitions);

  ir::IRFunction F;
  test::buildStoreTree(F, FX.G, 3, 3, 4);
  DPLabeler Ref(FX.G, &FX.Dyn);
  DPLabeling RefL;
  Ref.labelInto(F, RefL);
  Fresh.labelFunction(F);
  test::expectEquivalent(FX.G, F, RefL, Fresh);
}

TEST(WarmSnapshot, EmptyAutomatonRoundTrips) {
  Fixture FX;
  OnDemandAutomaton Empty(FX.G, &FX.Dyn);
  std::string Blob = snapshotBlob(Empty, FX.G);
  OnDemandAutomaton Fresh(FX.G, &FX.Dyn);
  WarmSnapshotStats S = cantFail(loadBlob(Fresh, FX.G, Blob));
  EXPECT_EQ(S.NumStates, 0u);
  EXPECT_EQ(S.NumTransitions, 0u);
}

TEST(WarmSnapshot, TruncationAtEveryByteBoundaryIsTypedAndHarmless) {
  Fixture FX;
  OnDemandAutomaton Warm(FX.G, &FX.Dyn);
  warmUp(Warm, FX.G);
  std::string Blob = snapshotBlob(Warm, FX.G);

  OnDemandAutomaton Victim(FX.G, &FX.Dyn);
  for (std::size_t Len = 0; Len < Blob.size(); ++Len) {
    Expected<WarmSnapshotStats> L =
        loadBlob(Victim, FX.G, Blob.substr(0, Len));
    ASSERT_FALSE(static_cast<bool>(L)) << "length " << Len;
    EXPECT_EQ(L.kind(), ErrorKind::MalformedInput) << "length " << Len;
    // Validation precedes import: a failed load never half-populates.
    ASSERT_EQ(Victim.numStates(), 0u) << "length " << Len;
    ASSERT_EQ(Victim.numTransitions(), 0u) << "length " << Len;
  }
  // The untouched victim still accepts the intact snapshot.
  cantFail(loadBlob(Victim, FX.G, Blob));
  EXPECT_EQ(Victim.numStates(), Warm.numStates());
}

TEST(WarmSnapshot, BitFlipsNeverCorruptTheAutomaton) {
  Fixture FX;
  OnDemandAutomaton Warm(FX.G, &FX.Dyn);
  warmUp(Warm, FX.G);
  std::string Blob = snapshotBlob(Warm, FX.G);

  ir::IRFunction Probe;
  test::buildStoreTree(Probe, FX.G, 5, 5, 6);
  DPLabeler Ref(FX.G, &FX.Dyn);
  DPLabeling RefL;
  Ref.labelInto(Probe, RefL);

  // Walk the whole file, a different bit at each step. A flip must either
  // be rejected typed or — should some header flip slip past every check —
  // load an automaton that still labels correctly. Anything else (crash,
  // sanitizer report, wrong labels) fails the test.
  for (std::size_t Off = 0; Off < Blob.size();
       Off += (Off < PayloadOff ? 1 : 3)) {
    std::string Corrupt = Blob;
    Corrupt[Off] ^= static_cast<char>(1u << (Off % 8));
    OnDemandAutomaton Victim(FX.G, &FX.Dyn);
    Expected<WarmSnapshotStats> L = loadBlob(Victim, FX.G, Corrupt);
    if (!L) {
      EXPECT_EQ(L.kind(), ErrorKind::MalformedInput) << "offset " << Off;
      EXPECT_EQ(Victim.numStates(), 0u) << "offset " << Off;
      continue;
    }
    Victim.labelFunction(Probe);
    test::expectEquivalent(FX.G, Probe, RefL, Victim);
  }
}

TEST(WarmSnapshot, RejectsWrongGrammarFingerprint) {
  Fixture FX;
  OnDemandAutomaton Warm(FX.G, &FX.Dyn);
  warmUp(Warm, FX.G);
  std::string Blob = snapshotBlob(Warm, FX.G);

  Grammar Other = cantFail(parseGrammar(test::runningExampleFixedText()));
  ASSERT_NE(Other.fingerprint(), FX.G.fingerprint());
  OnDemandAutomaton Victim(Other);
  Expected<WarmSnapshotStats> L = loadBlob(Victim, Other, Blob);
  ASSERT_FALSE(static_cast<bool>(L));
  EXPECT_EQ(L.kind(), ErrorKind::MalformedInput);
  EXPECT_NE(L.message().find("fingerprint"), std::string::npos) << L.message();
}

TEST(WarmSnapshot, HybridSeededAutomatonRoundTrips) {
  Fixture FX;
  auto Warm = makeHybrid(FX);
  unsigned Seeded = automatonOf(*Warm).numStates();
  ASSERT_GT(Seeded, 0u) << "hybrid automaton should be table-seeded";
  LabelerScratch Scratch;
  ir::IRFunction F;
  test::buildStoreTree(F, FX.G, 0, 0, 1);
  Warm->labelFunction(F, Scratch, nullptr);
  std::string Blob = snapshotBlob(automatonOf(*Warm), FX.G);

  auto Fresh = makeHybrid(FX);
  WarmSnapshotStats S = cantFail(loadBlob(automatonOf(*Fresh), FX.G, Blob));
  EXPECT_EQ(S.NumStates, automatonOf(*Warm).numStates());
  EXPECT_EQ(automatonOf(*Fresh).numStates(), automatonOf(*Warm).numStates());
}

TEST(WarmSnapshot, RejectsSnapshotSmallerThanSeededTables) {
  // A snapshot with fewer states than the automaton's seeded prefix can
  // only be stale (older tables). The empty snapshot is the extreme case.
  Fixture FX;
  OnDemandAutomaton Empty(FX.G, &FX.Dyn);
  std::string Blob = snapshotBlob(Empty, FX.G);

  auto Hybrid = makeHybrid(FX);
  ASSERT_GT(automatonOf(*Hybrid).numStates(), 0u);
  Expected<WarmSnapshotStats> L = loadBlob(automatonOf(*Hybrid), FX.G, Blob);
  ASSERT_FALSE(static_cast<bool>(L));
  EXPECT_EQ(L.kind(), ErrorKind::MalformedInput);
  EXPECT_NE(L.message().find("stale"), std::string::npos) << L.message();
}

TEST(WarmSnapshot, RejectsTamperedSeededPrefix) {
  // Behind the checksum sits the hybrid staleness check: a snapshot whose
  // state prefix disagrees with the seeded tables is rejected even when
  // it is internally consistent. Tamper a seeded state's cost word and
  // reseal the checksum to reach that layer.
  Fixture FX;
  auto Warm = makeHybrid(FX);
  std::string Blob = snapshotBlob(automatonOf(*Warm), FX.G);

  // State 0's record starts at the payload: op word, then the costs. The
  // guard pins the layout so a format change fails loudly here.
  ASSERT_GE(Blob.size(), PayloadOff + 2 * sizeof(std::uint32_t));
  std::uint32_t Op0 = 0;
  std::memcpy(&Op0, Blob.data() + PayloadOff, sizeof(Op0));
  ASSERT_EQ(Op0, automatonOf(*Warm).stateTable().byId(0)->Op)
      << "snapshot payload layout changed; update PayloadOff";
  std::uint32_t Cost0 = 0;
  std::memcpy(&Cost0, Blob.data() + PayloadOff + 4, sizeof(Cost0));
  ++Cost0;
  std::memcpy(Blob.data() + PayloadOff + 4, &Cost0, sizeof(Cost0));
  resealChecksum(Blob);

  auto Fresh = makeHybrid(FX);
  Expected<WarmSnapshotStats> L = loadBlob(automatonOf(*Fresh), FX.G, Blob);
  ASSERT_FALSE(static_cast<bool>(L));
  EXPECT_EQ(L.kind(), ErrorKind::MalformedInput);
  EXPECT_NE(L.message().find("stale"), std::string::npos) << L.message();
}

TEST(WarmSnapshot, FaultInjectedLoadFailsLikeCorruption) {
  Fixture FX;
  OnDemandAutomaton Warm(FX.G, &FX.Dyn);
  warmUp(Warm, FX.G);
  std::string Blob = snapshotBlob(Warm, FX.G);

  cantFail(fault::configure("registry-load:nth=1"));
  OnDemandAutomaton Victim(FX.G, &FX.Dyn);
  Expected<WarmSnapshotStats> L = loadBlob(Victim, FX.G, Blob);
  ASSERT_FALSE(static_cast<bool>(L));
  EXPECT_EQ(L.kind(), ErrorKind::MalformedInput);
  EXPECT_NE(L.message().find("fault"), std::string::npos) << L.message();
  EXPECT_EQ(Victim.numStates(), 0u);
  fault::reset();

  // Disarmed, the same automaton cold-starts into a clean load.
  cantFail(loadBlob(Victim, FX.G, Blob));
  EXPECT_EQ(Victim.numStates(), Warm.numStates());
}

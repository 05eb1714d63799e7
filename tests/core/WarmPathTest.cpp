//===- tests/core/WarmPathTest.cpp -------------------------------------------===//
//
// Part of the odburg project.
//
// The on-demand warm path: a node's key (operator, child states, hook
// outcomes) goes through one lock-free probe of the shared TransitionCache
// and StateComputer runs on a miss; the hybrid backend's offline-partition
// index sits in front of that probe. The warm path once also had a
// per-worker L1 micro-cache and a dense-row tier. The contracts their
// tests guarded still apply to what replaced them, so the two suites keep
// their names:
//
// - L1Cache: the hashed probe API every node goes through, and the
//   per-worker labeling scratch (LabelBatch) that is rebuilt per function
//   and rebound across automatons. A hit is always the value inserted for
//   exactly that key; counters account for one probe per node; reusing a
//   scratch never leaks state ids between automatons; per-worker scratches
//   under concurrency label bit-identically to a serial pass.
// - DenseTier: key layout (binary keys are ordered, hook outcomes are part
//   of the key), slot-array regrowth that retires and counts superseded
//   arrays, the memory accounting that agrees from automaton to session,
//   the state budget, and the offline-partition index: which operators it
//   admits, and that labeling is identical with it and without it, cold
//   and under racing workers.
//
//===----------------------------------------------------------------------===//

#include "core/OnDemandAutomaton.h"

#include "grammar/GrammarParser.h"
#include "pipeline/CompileSession.h"
#include "select/DPLabeler.h"
#include "select/LabelerBackend.h"
#include "select/Partition.h"
#include "targets/Target.h"
#include "workload/Synthetic.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

using namespace odburg;
using namespace odburg::targets;
using namespace odburg::workload;

namespace {

std::vector<ir::IRFunction> makeCorpus(const Grammar &G) {
  std::vector<ir::IRFunction> Corpus;
  for (const char *Name : {"gzip-like", "mcf-like", "art-like"}) {
    const Profile *P = findProfile(Name);
    EXPECT_NE(P, nullptr);
    std::vector<ir::IRFunction> Fns =
        cantFail(generateBatch(*P, G, /*Count=*/4, /*TargetNodes=*/1200));
    for (ir::IRFunction &F : Fns)
      Corpus.push_back(std::move(F));
  }
  return Corpus;
}

std::vector<ir::IRFunction *> pointers(std::vector<ir::IRFunction> &Fns) {
  std::vector<ir::IRFunction *> Ptrs;
  for (ir::IRFunction &F : Fns)
    Ptrs.push_back(&F);
  return Ptrs;
}

using Snapshot = std::vector<std::vector<std::pair<RuleId, std::uint32_t>>>;

Snapshot snapshot(const Grammar &G, const std::vector<ir::IRFunction> &Fns,
                  const Labeling &L) {
  Snapshot Snap;
  for (const ir::IRFunction &F : Fns)
    Snap.push_back(labelingSnapshot(F, G.numNonterminals(), L));
  return Snap;
}

/// Two-word keys [header, Salt] whose hash lands on shard 0 and, when
/// \p SameStart is set, on the same first probe slot of a freshly seeded
/// 64-slot array, so they all form one linear-probing chain.
std::vector<std::array<std::uint32_t, 2>> collidingKeys(std::size_t Count,
                                                        bool SameStart) {
  constexpr std::uint64_t ShardMask = TransitionCache::NumShards - 1;
  std::vector<std::array<std::uint32_t, 2>> Keys;
  std::uint64_t Start = 0;
  for (std::uint32_t Salt = 0; Keys.size() < Count; ++Salt) {
    std::array<std::uint32_t, 2> K{
        TransitionCache::packHeader(/*Op=*/1, /*NumChildren=*/1,
                                    /*NumDyn=*/0),
        Salt};
    std::uint64_t H = TransitionCache::hashKey(K.data(), 2);
    if ((H & ShardMask) != 0)
      continue;
    if (SameStart) {
      std::uint64_t S = (H >> 8) & 63;
      if (Keys.empty())
        Start = S;
      else if (S != Start)
        continue;
    }
    Keys.push_back(K);
  }
  return Keys;
}

/// A grammar whose relative costs never converge: every Un level adds a
/// state, so a chain of depth D needs a known, growing number of states.
const char *divergentGrammarText() {
  return R"(
    %start a
    a: Leaf = 1 (0);
    b: Leaf = 2 (1);
    a: Un(a) = 3 (1);
    b: Un(b) = 4 (2);
    a: Pair(a,b) = 5 (1);
  )";
}

void buildUnChain(ir::IRFunction &F, const Grammar &G, unsigned Depth) {
  ir::Node *N = F.makeLeaf(G.findOperator("Leaf"));
  OperatorId Un = G.findOperator("Un");
  for (unsigned I = 0; I < Depth; ++I) {
    SmallVector<ir::Node *, 1> C{N};
    N = F.makeNode(Un, C);
  }
  F.addRoot(N);
}

/// Random Store-rooted trees over the running example, with payloads
/// drawn from a small range so the memop hook fires on some stores and
/// not on others.
std::vector<ir::IRFunction> runningExampleCorpus(const Grammar &G) {
  std::vector<ir::IRFunction> Corpus(4);
  for (std::uint64_t I = 0; I < Corpus.size(); ++I) {
    test::RandomTreeBuilder B(G, /*Seed=*/I + 1, /*PayloadRange=*/4, "Store");
    for (int R = 0; R < 5; ++R) {
      SmallVector<ir::Node *, 2> C{
          Corpus[I].makeLeaf(G.findOperator("Reg"), R),
          B.build(Corpus[I], 30)};
      Corpus[I].addRoot(Corpus[I].makeNode(G.findOperator("Store"), C));
    }
  }
  return Corpus;
}

void expectNoRetiredTierCounters(const SelectionStats &S) {
  EXPECT_EQ(S.L1Probes, 0u);
  EXPECT_EQ(S.L1Hits, 0u);
  EXPECT_EQ(S.DenseProbes, 0u);
  EXPECT_EQ(S.DenseHits, 0u);
}

} // namespace

//===----------------------------------------------------------------------===//
// The hashed probe and the per-worker scratch
//===----------------------------------------------------------------------===//

TEST(L1Cache, UnitInsertLookup) {
  // The warm path hashes a key once and reuses the hash for the insert
  // that follows a miss; the hashed and unhashed entry points agree.
  TransitionCache C;
  std::uint32_t KeyA[3] = {TransitionCache::packHeader(1, 2, 0), 2, 3};
  std::uint32_t KeyB[3] = {TransitionCache::packHeader(1, 2, 0), 2, 4};
  std::uint64_t HA = TransitionCache::hashKey(KeyA, 3);
  std::uint64_t HB = TransitionCache::hashKey(KeyB, 3);
  EXPECT_EQ(C.lookupHashed(KeyA, 3, HA), InvalidState);
  C.insertHashed(KeyA, 3, HA, 7);
  C.insertHashed(KeyB, 3, HB, 9);
  EXPECT_EQ(C.lookupHashed(KeyA, 3, HA), 7u);
  EXPECT_EQ(C.lookupHashed(KeyB, 3, HB), 9u);
  EXPECT_EQ(C.lookup(KeyA, 3), 7u);
  EXPECT_EQ(C.lookup(KeyB, 3), 9u);
  EXPECT_EQ(C.size(), 2u);

  // Insert-if-absent: a second insert of a present key changes nothing.
  C.insertHashed(KeyA, 3, HA, 8);
  EXPECT_EQ(C.lookupHashed(KeyA, 3, HA), 7u);
  EXPECT_EQ(C.size(), 2u);
}

TEST(L1Cache, ForcedCollisionEvictsNeverLies) {
  // Every key on one shard, enough of them to grow its slot array three
  // times. The cache never evicts, so a key is found with its own value
  // from the moment it is inserted, across every regrowth.
  auto Keys = collidingKeys(300, /*SameStart=*/false);
  TransitionCache C;
  for (std::uint32_t Round = 0; Round < 3; ++Round) {
    for (std::uint32_t I = 0; I < Keys.size(); ++I) {
      StateId Before = C.lookup(Keys[I].data(), 2);
      if (Round == 0)
        EXPECT_EQ(Before, InvalidState) << "key " << I;
      else
        EXPECT_EQ(Before, I) << "key " << I << " round " << Round;
      C.insert(Keys[I].data(), 2, I);
      EXPECT_EQ(C.lookup(Keys[I].data(), 2), I);
    }
  }
  for (std::uint32_t I = 0; I < Keys.size(); ++I)
    EXPECT_EQ(C.lookup(Keys[I].data(), 2), I);
  EXPECT_EQ(C.size(), Keys.size());
}

TEST(L1Cache, TwoWayHoldsBothKeysOfACollidingPair) {
  // Two keys with the same shard and the same first probe slot: linear
  // probing keeps both, and a third colliding key displaces neither.
  auto Keys = collidingKeys(3, /*SameStart=*/true);
  TransitionCache C;
  C.insert(Keys[0].data(), 2, 101);
  C.insert(Keys[1].data(), 2, 102);
  EXPECT_EQ(C.lookup(Keys[0].data(), 2), 101u);
  EXPECT_EQ(C.lookup(Keys[1].data(), 2), 102u);
  EXPECT_EQ(C.lookup(Keys[2].data(), 2), InvalidState);

  C.insert(Keys[2].data(), 2, 103);
  EXPECT_EQ(C.lookup(Keys[0].data(), 2), 101u);
  EXPECT_EQ(C.lookup(Keys[1].data(), 2), 102u);
  EXPECT_EQ(C.lookup(Keys[2].data(), 2), 103u);
}

TEST(L1Cache, TwoWayForcedCollisionEvictsNeverLies) {
  // Forty keys on one probe chain of one 64-slot array (below the 3/4
  // growth threshold, so the chain never spreads out). A key not yet
  // inserted misses even though its chain holds its neighbours; an
  // inserted key is found with its own value.
  auto Keys = collidingKeys(40, /*SameStart=*/true);
  TransitionCache C;
  for (std::uint32_t I = 0; I < Keys.size(); ++I) {
    for (std::uint32_t J = I; J < Keys.size(); ++J)
      EXPECT_EQ(C.lookup(Keys[J].data(), 2), InvalidState);
    C.insert(Keys[I].data(), 2, I);
    for (std::uint32_t J = 0; J <= I; ++J)
      EXPECT_EQ(C.lookup(Keys[J].data(), 2), J);
  }
}

TEST(L1Cache, TwoWayRebindInvalidatesBothWays) {
  // A LabelerScratch holds two per-worker parts: the DP backend's label
  // table and the on-demand backend's LabelBatch. Moving one scratch back
  // and forth between the two backends, over functions of different
  // sizes, must label like DP every time.
  Grammar G = cantFail(parseGrammar(test::runningExampleText()));
  DynCostTable Dyn =
      cantFail(DynCostTable::build(G, test::runningExampleHooks()));
  std::vector<ir::IRFunction> Corpus = runningExampleCorpus(G);
  ir::IRFunction Small;
  test::buildStoreTree(Small, G, 1, 1, 2);

  auto DP = cantFail(LabelerBackend::create(BackendKind::DP, G, &Dyn));
  auto OD = cantFail(LabelerBackend::create(BackendKind::OnDemand, G, &Dyn));
  DPLabeler Ref(G, &Dyn);
  LabelerScratch Scratch;
  for (ir::IRFunction &F : Corpus) {
    for (LabelerBackend *B : {DP.get(), OD.get()}) {
      DPLabeling Want = Ref.label(F);
      test::expectEquivalent(G, F, Want, B->labelFunction(F, Scratch));
      DPLabeling WantSmall = Ref.label(Small);
      test::expectEquivalent(G, Small, WantSmall,
                             B->labelFunction(Small, Scratch));
    }
  }
}

TEST(L1Cache, SameSlotDifferentLengthMisses) {
  // Keys that share a prefix but differ in length never alias: a unary
  // key is not a prefix match of a binary one, and a raw two-word key is
  // not found by a three-word lookup with the same first words.
  TransitionCache C;
  std::uint32_t Unary[2] = {TransitionCache::packHeader(3, 1, 0), 5};
  std::uint32_t Binary[3] = {TransitionCache::packHeader(3, 2, 0), 5, 6};
  C.insert(Unary, 2, 11);
  EXPECT_EQ(C.lookup(Binary, 3), InvalidState);
  C.insert(Binary, 3, 12);
  EXPECT_EQ(C.lookup(Unary, 2), 11u);
  EXPECT_EQ(C.lookup(Binary, 3), 12u);

  std::uint32_t Short[2] = {5, 6};
  std::uint32_t Long[3] = {5, 6, 0};
  C.insert(Short, 2, 21);
  EXPECT_EQ(C.lookup(Long, 3), InvalidState);
  C.insert(Long, 3, 22);
  EXPECT_EQ(C.lookup(Short, 2), 21u);
  EXPECT_EQ(C.lookup(Long, 3), 22u);
}

TEST(L1Cache, RebindInvalidatesAllEntries) {
  // LabelBatch::build() replaces the previous function's contents: after
  // a large function, a small one sees only its own nodes and labels.
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);
  ir::IRFunction *Large = &Corpus[0];
  for (ir::IRFunction &F : Corpus)
    if (F.size() > Large->size())
      Large = &F;
  ir::IRFunction *Small = &Corpus[0];
  for (ir::IRFunction &F : Corpus)
    if (F.size() < Small->size())
      Small = &F;
  ASSERT_LT(Small->size(), Large->size());

  OnDemandAutomaton A(T->G, &T->Dyn);
  DPLabeler Ref(T->G, &T->Dyn);
  LabelBatch Batch;
  Batch.build(*Large);
  EXPECT_EQ(Batch.size(), Large->size());
  Batch.build(*Small);
  EXPECT_EQ(Batch.size(), Small->size());

  for (ir::IRFunction *F : {Large, Small, Large, Small}) {
    A.labelFunctionBatched(*F, Batch, nullptr);
    EXPECT_EQ(Batch.size(), F->size());
    DPLabeling Want = Ref.label(*F);
    test::expectEquivalent(T->G, *F, Want, A);
  }
}

TEST(L1Cache, ScratchSurvivesAutomatonReplacementAtSameAddress) {
  // Label through a batch against automaton A, destroy A, build B
  // (frequently at A's old address) with its table seeded in a different
  // order, and relabel through the same batch: B's labeling must come
  // from B's own states.
  Grammar G = cantFail(parseGrammar(test::runningExampleFixedText()));
  ir::IRFunction F;
  test::buildStoreTree(F, G, 1, 1, 2);
  test::buildStoreTree(F, G, 2, 9, 4);
  DPLabeling Ref = DPLabeler(G).label(F);

  LabelBatch Batch;
  auto A = std::make_unique<OnDemandAutomaton>(G);
  A->labelFunctionBatched(F, Batch, nullptr);
  A.reset();

  auto B = std::make_unique<OnDemandAutomaton>(G);
  ir::IRFunction Other;
  test::buildStoreTree(Other, G, 7, 5, 6);
  B->labelFunction(Other);
  B->labelFunctionBatched(F, Batch, nullptr);
  test::expectEquivalent(G, F, Ref, *B);
}

TEST(L1Cache, LabelingIdenticalWithTinyAndDefaultL1) {
  // The cache starts from 64-slot seed arrays and grows; with the cache
  // off every node recomputes its state. Rules and costs must match
  // between the two, on the node-at-a-time and the batched path, with the
  // memop hook in play. Every node is exactly one probe.
  Grammar G = cantFail(parseGrammar(test::runningExampleText()));
  DynCostTable Dyn =
      cantFail(DynCostTable::build(G, test::runningExampleHooks()));
  std::vector<ir::IRFunction> Corpus = runningExampleCorpus(G);

  OnDemandAutomaton::Options NoCache;
  NoCache.UseTransitionCache = false;
  OnDemandAutomaton Plain(G, &Dyn, NoCache);
  Snapshot Ref;
  for (ir::IRFunction &F : Corpus) {
    Plain.labelFunction(F);
    Ref.push_back(labelingSnapshot(F, G.numNonterminals(), Plain));
  }

  for (bool Batched : {false, true}) {
    OnDemandAutomaton A(G, &Dyn);
    LabelBatch Batch;
    SelectionStats Stats;
    Snapshot Got;
    for (int Pass = 0; Pass < 2; ++Pass) {
      Got.clear();
      for (ir::IRFunction &F : Corpus) {
        if (Batched)
          A.labelFunctionBatched(F, Batch, &Stats);
        else
          A.labelFunction(F, &Stats);
        Got.push_back(labelingSnapshot(F, G.numNonterminals(), A));
      }
      EXPECT_EQ(Got, Ref) << "batched " << Batched << " pass " << Pass;
    }
    EXPECT_EQ(Stats.CacheProbes, Stats.NodesLabeled);
    EXPECT_EQ(Stats.CacheHits + Stats.StatesComputed, Stats.CacheProbes);
    expectNoRetiredTierCounters(Stats);
  }
}

TEST(L1Cache, CountersMonotoneAndConsistentWithSharedCache) {
  // At the automaton level, on one thread: cumulative counters never step
  // back; every node is one shared-cache probe that either hits or
  // computes one state; the batched path counts exactly like the
  // node-at-a-time path; and a warm relabel computes nothing.
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);

  OnDemandAutomaton Node(T->G, &T->Dyn);
  OnDemandAutomaton Batched(T->G, &T->Dyn);
  LabelBatch Batch;
  SelectionStats Total, TotalBatched;
  std::uint64_t LastProbes = 0, LastHits = 0;
  for (int Pass = 0; Pass < 3; ++Pass) {
    for (ir::IRFunction &F : Corpus) {
      Node.labelFunction(F, &Total);
      Batched.labelFunctionBatched(F, Batch, &TotalBatched);
    }
    EXPECT_GE(Total.CacheProbes, LastProbes);
    EXPECT_GE(Total.CacheHits, LastHits);
    LastProbes = Total.CacheProbes;
    LastHits = Total.CacheHits;
    EXPECT_EQ(Total.CacheProbes, Total.NodesLabeled);
    EXPECT_EQ(Total.CacheHits + Total.StatesComputed, Total.CacheProbes);
    EXPECT_EQ(TotalBatched.NodesLabeled, Total.NodesLabeled);
    EXPECT_EQ(TotalBatched.CacheProbes, Total.CacheProbes);
    EXPECT_EQ(TotalBatched.CacheHits, Total.CacheHits);
    EXPECT_EQ(TotalBatched.StatesComputed, Total.StatesComputed);
  }
  // Each miss inserts one new transition.
  EXPECT_EQ(Total.StatesComputed, Node.numTransitions());
  expectNoRetiredTierCounters(Total);
  expectNoRetiredTierCounters(TotalBatched);

  std::size_t TransitionsBefore = Node.numTransitions();
  SelectionStats Warm;
  Node.labelFunction(Corpus[0], &Warm);
  EXPECT_EQ(Warm.StatesComputed, 0u);
  EXPECT_EQ(Warm.CacheHits, Warm.CacheProbes);
  EXPECT_EQ(Warm.CacheProbes, Corpus[0].size());
  EXPECT_EQ(Node.numTransitions(), TransitionsBefore);
}

TEST(L1Cache, ScratchReboundAcrossAutomatonsStaysCorrect) {
  // One batch serves an x86 automaton, then a mips automaton whose state
  // ids mean different things. The mips labeling must equal a fresh
  // batch's.
  auto TX = cantFail(makeTarget("x86"));
  auto TM = cantFail(makeTarget("mips"));
  std::vector<ir::IRFunction> CX = makeCorpus(TX->G);
  std::vector<ir::IRFunction> CM = makeCorpus(TM->G);

  OnDemandAutomaton AX(TX->G, &TX->Dyn);
  OnDemandAutomaton AM(TM->G, &TM->Dyn);
  OnDemandAutomaton AMRef(TM->G, &TM->Dyn);

  LabelBatch Shared;
  for (ir::IRFunction &F : CX)
    AX.labelFunctionBatched(F, Shared, nullptr);

  LabelBatch Fresh;
  for (std::size_t I = 0; I < CM.size(); ++I) {
    AM.labelFunctionBatched(CM[I], Shared, nullptr);
    Snapshot Got{labelingSnapshot(CM[I], TM->G.numNonterminals(), AM)};
    AMRef.labelFunctionBatched(CM[I], Fresh, nullptr);
    Snapshot Want{labelingSnapshot(CM[I], TM->G.numNonterminals(), AMRef)};
    EXPECT_EQ(Got, Want) << "function " << I;
  }
}

TEST(L1Cache, PerWorkerL1sUnderConcurrencyBitIdentical) {
  // Four workers, each with a private LabelBatch (as CompileSession's
  // workers hold one in their LabelerScratch), share one automaton. All
  // shared-cache traffic goes through the seqlock; the labeling must be
  // bit-identical to a serial pass, and every node is one probe.
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);

  OnDemandAutomaton Serial(T->G, &T->Dyn);
  for (ir::IRFunction &F : Corpus)
    Serial.labelFunction(F);
  Snapshot Ref = snapshot(T->G, Corpus, Serial);

  OnDemandAutomaton Parallel(T->G, &T->Dyn);
  constexpr unsigned NumWorkers = 4;
  std::atomic<std::size_t> Next{0};
  std::vector<SelectionStats> Stats(NumWorkers);
  auto Work = [&](unsigned W) {
    LabelBatch Batch;
    std::size_t I;
    while ((I = Next.fetch_add(1, std::memory_order_relaxed)) < Corpus.size())
      Parallel.labelFunctionBatched(Corpus[I], Batch, &Stats[W]);
  };
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < NumWorkers; ++W)
    Workers.emplace_back(Work, W);
  for (std::thread &Th : Workers)
    Th.join();

  EXPECT_EQ(snapshot(T->G, Corpus, Parallel), Ref);
  EXPECT_EQ(Serial.numStates(), Parallel.numStates());
  SelectionStats Sum;
  for (const SelectionStats &S : Stats)
    Sum += S;
  EXPECT_EQ(Sum.CacheProbes, Sum.NodesLabeled);
  expectNoRetiredTierCounters(Sum);
}

//===----------------------------------------------------------------------===//
// Key layout, regrowth, memory, budget and the offline-partition index
//===----------------------------------------------------------------------===//

TEST(DenseTier, AutomatonAndSessionMemoryAccountDenseRows) {
  // The automaton's footprint covers its state table and cache, never
  // shrinks while it learns, and stops growing once warm. A session's
  // BackendBytes is a snapshot of that number, not a sum: accumulating
  // several batches into one stats object reports the last footprint.
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  pipeline::CompileSession Session(*T);
  const OnDemandAutomaton &A = Session.automaton();
  std::size_t Empty = A.memoryBytes();
  EXPECT_GE(Empty, A.stateTable().memoryBytes());

  pipeline::SessionStats Cold, Warm1, Warm2, Accumulated;
  Session.compileFunctions(Ptrs, 2, &Cold);
  Session.compileFunctions(Ptrs, 2, &Warm1);
  Session.compileFunctions(Ptrs, 2, &Warm2);
  EXPECT_GT(Cold.BackendBytes, Empty);
  EXPECT_GT(A.memoryBytes(), A.stateTable().memoryBytes());
  EXPECT_EQ(Warm1.Label.StatesComputed, 0u);
  EXPECT_EQ(Warm1.BackendBytes, Cold.BackendBytes);
  EXPECT_EQ(Warm2.BackendBytes, Warm1.BackendBytes);
  EXPECT_EQ(Warm2.BackendBytes, A.memoryBytes());

  Session.compileFunctions(Ptrs, 2, &Accumulated);
  Session.compileFunctions(Ptrs, 2, &Accumulated);
  EXPECT_EQ(Accumulated.BackendBytes, A.memoryBytes());
  EXPECT_EQ(Accumulated.Label.NodesLabeled, 2 * Warm1.Label.NodesLabeled);
}

TEST(DenseTier, BinaryRowsAreKeyedByLeftState) {
  // A binary key holds the left child's state before the right one's:
  // (L, R) and (R, L) are different transitions.
  TransitionCache C;
  std::uint32_t Header = TransitionCache::packHeader(4, 2, 0);
  for (std::uint32_t L = 0; L < 8; ++L)
    for (std::uint32_t R = 0; R < 8; ++R) {
      std::uint32_t Key[3] = {Header, L, R};
      C.insert(Key, 3, L * 8 + R);
    }
  EXPECT_EQ(C.size(), 64u);
  for (std::uint32_t L = 0; L < 8; ++L)
    for (std::uint32_t R = 0; R < 8; ++R) {
      std::uint32_t Key[3] = {Header, L, R};
      EXPECT_EQ(C.lookup(Key, 3), L * 8 + R);
    }

  // In the running example, Plus(Load(r), r) and Plus(r, Load(r)) share
  // child states in swapped order and must both label like DP.
  Grammar G = cantFail(parseGrammar(test::runningExampleFixedText()));
  ir::IRFunction F;
  OperatorId Reg = G.findOperator("Reg"), Load = G.findOperator("Load"),
             Plus = G.findOperator("Plus"), Store = G.findOperator("Store");
  for (bool LoadLeft : {true, false}) {
    SmallVector<ir::Node *, 1> LC{F.makeLeaf(Reg, 1)};
    ir::Node *Ld = F.makeNode(Load, LC);
    ir::Node *R = F.makeLeaf(Reg, 2);
    SmallVector<ir::Node *, 2> PC{LoadLeft ? Ld : R, LoadLeft ? R : Ld};
    SmallVector<ir::Node *, 2> SC{F.makeLeaf(Reg, 0), F.makeNode(Plus, PC)};
    F.addRoot(F.makeNode(Store, SC));
  }
  OnDemandAutomaton A(G);
  A.labelFunction(F);
  test::expectEquivalent(G, F, DPLabeler(G).label(F), A);
}

TEST(DenseTier, ByteBudgetStopsPromotionNotLookup) {
  // An automaton at its state budget still serves every transition it
  // knows: relabeling is all hits. Only an input that needs one state
  // more trips the bound.
  Grammar G = cantFail(parseGrammar(divergentGrammarText()));
  ir::IRFunction Known;
  buildUnChain(Known, G, 10);
  unsigned Needed;
  {
    OnDemandAutomaton Probe(G);
    Probe.labelFunction(Known);
    Needed = Probe.numStates();
  }

  OnDemandAutomaton::Options Opts;
  Opts.MaxStates = Needed;
  OnDemandAutomaton A(G, nullptr, Opts);
  A.labelFunction(Known);
  EXPECT_EQ(A.numStates(), Needed);
  SelectionStats Warm;
  A.labelFunction(Known, &Warm);
  EXPECT_EQ(Warm.StatesComputed, 0u);
  EXPECT_EQ(Warm.CacheHits, Warm.CacheProbes);
  EXPECT_EQ(Warm.CacheProbes, Known.size());

  ir::IRFunction Deeper;
  buildUnChain(Deeper, G, 11);
  EXPECT_DEATH(A.labelFunction(Deeper), "state limit");
}

TEST(DenseTier, DynCostOperatorsBypassTheTier) {
  // Operators with dynamic-cost rules stay out of the hybrid's offline
  // partition and take the cache probe, with the hook outcome in the key:
  // a Store whose memop applies and one whose memop does not are
  // different transitions even with equal child states.
  Grammar G = cantFail(parseGrammar(test::runningExampleText()));
  DynCostTable Dyn =
      cantFail(DynCostTable::build(G, test::runningExampleHooks()));
  OperatorId Store = G.findOperator("Store");
  std::vector<ir::IRFunction> Corpus = runningExampleCorpus(G);
  ir::IRFunction Pair;
  test::buildStoreTree(Pair, G, 1, 1, 2); // memop applies
  test::buildStoreTree(Pair, G, 1, 7, 2); // memop does not
  Corpus.push_back(std::move(Pair));

  auto B = cantFail(LabelerBackend::create(BackendKind::Hybrid, G, &Dyn));
  DPLabeler Ref(G, &Dyn);
  LabelerScratch Scratch;
  for (ir::IRFunction &F : Corpus) {
    std::uint64_t Stores = 0;
    for (const ir::Node *N : F.nodes())
      Stores += N->op() == Store;
    SelectionStats Stats;
    const Labeling &L = B->labelFunction(F, Scratch, &Stats);
    EXPECT_EQ(Stats.CacheProbes, Stores);
    EXPECT_EQ(Stats.OfflineHits, F.size() - Stores);
    DPLabeling Want = Ref.label(F);
    test::expectEquivalent(G, F, Want, L);
  }

  // The last function's two Stores see the same child states, but the
  // hook outcome differs, so they resolve to two cached transitions.
  const ir::IRFunction &Last = Corpus.back();
  std::vector<const ir::Node *> Roots;
  for (const ir::Node *N : Last.nodes())
    if (N->op() == Store)
      Roots.push_back(N);
  ASSERT_EQ(Roots.size(), 2u);
  EXPECT_EQ(Roots[0]->child(0)->label(), Roots[1]->child(0)->label());
  EXPECT_EQ(Roots[0]->child(1)->label(), Roots[1]->child(1)->label());
  EXPECT_NE(Roots[0]->label(), Roots[1]->label());
}

TEST(DenseTier, EligibilityFollowsArityAndDynRules) {
  // The offline partition admits exactly the operators its tables can
  // cover: no dynamic-cost rules and arity at most 4. Everything else is
  // labeled through the probe, and the hybrid still labels like DP.
  Grammar G = cantFail(parseGrammar(R"(
    %start r
    r: Reg (0);
    r: Neg(r) (1);
    r: Add(r,r) (1);
    r: Sel(r,r,r,r) (1);
    r: Mix(r,r,r,r,r) (2);
  )"));
  GrammarPartition P = GrammarPartition::compute(G);
  for (const char *Op : {"Reg", "Neg", "Add", "Sel"})
    EXPECT_TRUE(P.contains(G.findOperator(Op))) << Op;
  EXPECT_FALSE(P.contains(G.findOperator("Mix")));
  ASSERT_EQ(P.DynOps.size(), 1u);
  EXPECT_EQ(P.DynOps[0], G.findOperator("Mix"));

  ir::IRFunction F;
  auto Leaf = [&](int V) { return F.makeLeaf(G.findOperator("Reg"), V); };
  SmallVector<ir::Node *, 5> MixC{Leaf(0), Leaf(1), Leaf(2), Leaf(3), Leaf(4)};
  ir::Node *Mix = F.makeNode(G.findOperator("Mix"), MixC);
  SmallVector<ir::Node *, 1> NegC{Mix};
  ir::Node *Neg = F.makeNode(G.findOperator("Neg"), NegC);
  SmallVector<ir::Node *, 4> SelC{Neg, Leaf(5), Mix, Leaf(6)};
  F.addRoot(F.makeNode(G.findOperator("Sel"), SelC));

  auto B = cantFail(LabelerBackend::create(BackendKind::Hybrid, G));
  LabelerScratch Scratch;
  SelectionStats Stats;
  const Labeling &L = B->labelFunction(F, Scratch, &Stats);
  // Mix takes the probe, and so do Neg and Sel above it: a static
  // operator is indexed only while its children carry offline states.
  // The seven Reg leaves are offline hits.
  EXPECT_EQ(Stats.CacheProbes, 3u);
  EXPECT_EQ(Stats.OfflineHits, F.size() - 3);
  test::expectEquivalent(G, F, DPLabeler(G).label(F), L);

  // The running example's Store carries the memop hook: excluded.
  Grammar Dyn = cantFail(parseGrammar(test::runningExampleText()));
  EXPECT_FALSE(
      GrammarPartition::compute(Dyn).contains(Dyn.findOperator("Store")));
}

TEST(DenseTier, LabelingBitIdenticalDenseOnAndOff) {
  // The offline-partition index is a pure accelerator: the hybrid (index
  // on) and the plain on-demand backend (index off) produce the same
  // rules and costs at every node, on the static and the full grammar.
  auto T = cantFail(makeTarget("x86"));
  for (bool FullGrammar : {false, true}) {
    const Grammar &G = FullGrammar ? T->G : T->Fixed;
    const DynCostTable *Dyn = FullGrammar ? &T->Dyn : nullptr;
    std::vector<ir::IRFunction> Corpus = makeCorpus(G);
    auto On = cantFail(LabelerBackend::create(BackendKind::Hybrid, G, Dyn));
    auto Off = cantFail(LabelerBackend::create(BackendKind::OnDemand, G, Dyn));
    LabelerScratch SOn, SOff;
    SelectionStats StatsOn;
    for (int Pass = 0; Pass < 2; ++Pass)
      for (ir::IRFunction &F : Corpus) {
        auto Got = labelingSnapshot(F, G.numNonterminals(),
                                    On->labelFunction(F, SOn, &StatsOn));
        auto Want = labelingSnapshot(F, G.numNonterminals(),
                                     Off->labelFunction(F, SOff));
        EXPECT_EQ(Got, Want) << "full " << FullGrammar << " pass " << Pass;
      }
    EXPECT_GT(StatsOn.OfflineHits, 0u);
  }
}

TEST(DenseTier, RacingPromotionStaysBitIdentical) {
  // Several rounds of four workers labeling cold against a fresh hybrid
  // backend, so state construction and cache inserts race differently
  // each round. Every round must reproduce the serial labeling.
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);
  std::vector<Snapshot> Ref(Corpus.size());
  {
    auto Serial =
        cantFail(LabelerBackend::create(BackendKind::Hybrid, T->G, &T->Dyn));
    LabelerScratch Scratch;
    for (std::size_t I = 0; I < Corpus.size(); ++I)
      Ref[I] = {labelingSnapshot(Corpus[I], T->G.numNonterminals(),
                                 Serial->labelFunction(Corpus[I], Scratch))};
  }

  for (int Round = 0; Round < 3; ++Round) {
    auto B =
        cantFail(LabelerBackend::create(BackendKind::Hybrid, T->G, &T->Dyn));
    constexpr unsigned NumWorkers = 4;
    std::atomic<std::size_t> Next{0};
    std::vector<Snapshot> Got(Corpus.size());
    std::vector<SelectionStats> Stats(NumWorkers);
    auto Work = [&](unsigned W) {
      LabelerScratch Scratch;
      std::size_t I;
      while ((I = Next.fetch_add(1, std::memory_order_relaxed)) <
             Corpus.size())
        Got[I] = {labelingSnapshot(
            Corpus[I], T->G.numNonterminals(),
            B->labelFunction(Corpus[I], Scratch, &Stats[W]))};
    };
    std::vector<std::thread> Workers;
    for (unsigned W = 0; W < NumWorkers; ++W)
      Workers.emplace_back(Work, W);
    for (std::thread &Th : Workers)
      Th.join();
    for (std::size_t I = 0; I < Corpus.size(); ++I)
      EXPECT_EQ(Got[I], Ref[I]) << "round " << Round << " function " << I;
    SelectionStats Sum;
    for (const SelectionStats &S : Stats)
      Sum += S;
    EXPECT_EQ(Sum.CacheProbes + Sum.OfflineHits, Sum.NodesLabeled);
  }
}

TEST(DenseTier, RegrowthRetiresOldArraysAndKeepsEntries) {
  // Growing a shard publishes a doubled slot array and keeps the old one
  // alive for lock-free readers; memoryBytes() counts the retired arrays
  // too, and every entry survives each regrowth.
  TransitionCache C;
  std::size_t Empty = C.memoryBytes();
  // Empty: NumShards seed arrays of 64 slots each, no interned keys.
  std::size_t SlotBytes = Empty / (TransitionCache::NumShards * 64);
  ASSERT_GT(SlotBytes, 0u);
  ASSERT_EQ(Empty, SlotBytes * TransitionCache::NumShards * 64);

  // 150 keys on one shard: 64 -> 128 (at 49 keys) -> 256 (at 97 keys).
  auto Keys = collidingKeys(150, /*SameStart=*/false);
  for (std::uint32_t I = 0; I < Keys.size(); ++I) {
    C.insert(Keys[I].data(), 2, I);
    for (std::uint32_t J = 0; J <= I; ++J)
      ASSERT_EQ(C.lookup(Keys[J].data(), 2), J) << "after " << I;
  }
  // Live + retired: the 128- and 256-slot arrays on top of the seed one.
  EXPECT_GE(C.memoryBytes(), Empty + (128 + 256) * SlotBytes);
  EXPECT_EQ(C.size(), Keys.size());
}

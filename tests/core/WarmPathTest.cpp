//===- tests/core/WarmPathTest.cpp -------------------------------------------===//
//
// Part of the odburg project.
//
// The on-demand warm path: a node's key (operator, child states, hook
// outcomes) goes through one lock-free probe of the shared TransitionCache
// and StateComputer runs on a miss; the hybrid backend's offline-partition
// index sits in front of that probe. The warm path once also had a
// per-worker L1 micro-cache and a dense-row tier, and the automaton once
// had its own thread pool for labeling a corpus. The contracts their tests
// guarded still apply to what replaced them, so the three suites keep
// their names:
//
// - L1Cache: the hashed probe API every node goes through, and the
//   per-worker LabelerScratch that is reused across functions and rebound
//   across backends and automatons. A hit is always the value inserted
//   for exactly that key; counters account for one probe per node;
//   reusing a scratch never leaks state ids between automatons;
//   per-worker scratches under concurrency label bit-identically to a
//   serial pass.
// - DenseTier: key layout (binary keys are ordered, hook outcomes are part
//   of the key), slot-array regrowth that retires and counts superseded
//   arrays, the memory accounting that agrees from automaton to backend,
//   the state budget, and the offline-partition index: which operators it
//   admits, and that labeling is identical with it and without it, cold
//   and under racing workers.
// - ParallelLabel: concurrent labeling as production runs it — N
//   CompileService workers, each labeling through the automaton's node
//   loop with its own scratch, on one shared backend. The worker count is a pure
//   throughput knob: rules and normalized costs per node are bit-identical
//   to a serial pass, and the state table converges to the same set of
//   states (hash consing is order-independent).
//
//===----------------------------------------------------------------------===//

#include "core/OnDemandAutomaton.h"

#include "grammar/GrammarParser.h"
#include "pipeline/CompileService.h"
#include "select/DPLabeler.h"
#include "select/LabelerBackend.h"
#include "select/Partition.h"
#include "targets/Target.h"
#include "workload/Synthetic.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <thread>
#include <vector>

using namespace odburg;
using namespace odburg::targets;
using namespace odburg::workload;

namespace {

std::vector<ir::IRFunction> makeCorpus(const Grammar &G,
                                       unsigned TargetNodes = 1200) {
  std::vector<ir::IRFunction> Corpus;
  for (const char *Name : {"gzip-like", "mcf-like", "art-like"}) {
    const Profile *P = findProfile(Name);
    EXPECT_NE(P, nullptr);
    std::vector<ir::IRFunction> Fns =
        cantFail(generateBatch(*P, G, /*Count=*/4, TargetNodes));
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

/// An on-demand backend over \p T's full grammar.
std::unique_ptr<LabelerBackend> onDemandBackend(const Target &T) {
  return cantFail(LabelerBackend::create(BackendKind::OnDemand, T.G, &T.Dyn));
}

const OnDemandAutomaton &automatonOf(const LabelerBackend &B) {
  return static_cast<const OnDemandBackend &>(B).automaton();
}

/// Compiles \p Ptrs through \p Svc and returns the batch's summed
/// labeling counters; every function must compile.
SelectionStats compileBatch(pipeline::CompileService &Svc,
                            std::span<ir::IRFunction *const> Ptrs) {
  SelectionStats Sum;
  for (const pipeline::CompileResult &R :
       cantFail(pipeline::compileAll(Svc, Ptrs))) {
    EXPECT_TRUE(R.ok()) << R.Diagnostic;
    Sum += R.Stats;
  }
  return Sum;
}

/// One batch through a fresh \p Workers-worker service on the shared
/// backend \p B.
SelectionStats compileWithWorkers(const Target &T, LabelerBackend &B,
                                  std::span<ir::IRFunction *const> Ptrs,
                                  unsigned Workers) {
  pipeline::CompileService::Options Opts;
  Opts.Workers = Workers;
  pipeline::CompileService Svc(T.G, &T.Dyn, B, std::move(Opts));
  return compileBatch(Svc, Ptrs);
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
  // A LabelerScratch holds the DP backend's label table; the on-demand
  // backend keeps its labels in the nodes. Moving one scratch back and
  // forth between the two backends, over functions of different sizes,
  // must label like DP every time.
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
  // One scratch reused across functions of very different sizes: each
  // labeling sees only its own nodes, alternating large and small.
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

  std::unique_ptr<LabelerBackend> B = onDemandBackend(*T);
  DPLabeler Ref(T->G, &T->Dyn);
  LabelerScratch Scratch;
  for (ir::IRFunction *F : {Large, Small, Large, Small}) {
    SelectionStats Stats;
    const Labeling &L = B->labelFunction(*F, Scratch, &Stats);
    EXPECT_EQ(Stats.NodesLabeled, F->size());
    DPLabeling Want = Ref.label(*F);
    test::expectEquivalent(T->G, *F, Want, L);
  }
}

TEST(L1Cache, ScratchSurvivesAutomatonReplacementAtSameAddress) {
  // Label through a scratch against backend A, destroy A, build B
  // (frequently at A's old address) with its table seeded in a different
  // order, and relabel through the same scratch: B's labeling must come
  // from B's own states.
  Grammar G = cantFail(parseGrammar(test::runningExampleFixedText()));
  ir::IRFunction F;
  test::buildStoreTree(F, G, 1, 1, 2);
  test::buildStoreTree(F, G, 2, 9, 4);
  DPLabeling Ref = DPLabeler(G).label(F);

  LabelerScratch Scratch;
  auto A = cantFail(LabelerBackend::create(BackendKind::OnDemand, G));
  A->labelFunction(F, Scratch);
  A.reset();

  auto B = cantFail(LabelerBackend::create(BackendKind::OnDemand, G));
  ir::IRFunction Other;
  test::buildStoreTree(Other, G, 7, 5, 6);
  B->labelFunction(Other, Scratch);
  test::expectEquivalent(G, F, Ref, B->labelFunction(F, Scratch));
}

TEST(L1Cache, LabelingIdenticalWithTinyAndDefaultL1) {
  // The cache starts from 64-slot seed arrays and grows; with the cache
  // off every node recomputes its state. Rules and costs must match
  // between the two, cold and warm, with the memop hook in play. Every
  // node is exactly one probe.
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

  OnDemandAutomaton A(G, &Dyn);
  SelectionStats Stats;
  Snapshot Got;
  for (int Pass = 0; Pass < 2; ++Pass) {
    Got.clear();
    for (ir::IRFunction &F : Corpus) {
      A.labelFunction(F, &Stats);
      Got.push_back(labelingSnapshot(F, G.numNonterminals(), A));
    }
    EXPECT_EQ(Got, Ref) << "pass " << Pass;
  }
  EXPECT_EQ(Stats.CacheProbes, Stats.NodesLabeled);
  EXPECT_EQ(Stats.CacheHits + Stats.StatesComputed, Stats.CacheProbes);
  expectNoRetiredTierCounters(Stats);
}

TEST(L1Cache, CountersMonotoneAndConsistentWithSharedCache) {
  // At the automaton level, on one thread: cumulative counters never step
  // back; every node is one shared-cache probe that either hits or
  // computes one state; and a warm relabel computes nothing.
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);

  OnDemandAutomaton Node(T->G, &T->Dyn);
  SelectionStats Total;
  std::uint64_t LastProbes = 0, LastHits = 0;
  for (int Pass = 0; Pass < 3; ++Pass) {
    for (ir::IRFunction &F : Corpus)
      Node.labelFunction(F, &Total);
    EXPECT_GE(Total.CacheProbes, LastProbes);
    EXPECT_GE(Total.CacheHits, LastHits);
    LastProbes = Total.CacheProbes;
    LastHits = Total.CacheHits;
    EXPECT_EQ(Total.CacheProbes, Total.NodesLabeled);
    EXPECT_EQ(Total.CacheHits + Total.StatesComputed, Total.CacheProbes);
  }
  // Each miss inserts one new transition.
  EXPECT_EQ(Total.StatesComputed, Node.numTransitions());
  expectNoRetiredTierCounters(Total);

  std::size_t TransitionsBefore = Node.numTransitions();
  SelectionStats Warm;
  Node.labelFunction(Corpus[0], &Warm);
  EXPECT_EQ(Warm.StatesComputed, 0u);
  EXPECT_EQ(Warm.CacheHits, Warm.CacheProbes);
  EXPECT_EQ(Warm.CacheProbes, Corpus[0].size());
  EXPECT_EQ(Node.numTransitions(), TransitionsBefore);
}

TEST(L1Cache, ScratchReboundAcrossAutomatonsStaysCorrect) {
  // One scratch serves an x86 backend, then a mips backend whose state
  // ids mean different things. The mips labeling must equal that of a
  // second mips backend labeling through a fresh scratch.
  auto TX = cantFail(makeTarget("x86"));
  auto TM = cantFail(makeTarget("mips"));
  std::vector<ir::IRFunction> CX = makeCorpus(TX->G);
  std::vector<ir::IRFunction> CM = makeCorpus(TM->G);

  std::unique_ptr<LabelerBackend> BX = onDemandBackend(*TX);
  std::unique_ptr<LabelerBackend> BM = onDemandBackend(*TM);
  std::unique_ptr<LabelerBackend> BMRef = onDemandBackend(*TM);

  LabelerScratch Shared;
  for (ir::IRFunction &F : CX)
    BX->labelFunction(F, Shared);

  LabelerScratch Fresh;
  unsigned NumNts = TM->G.numNonterminals();
  for (std::size_t I = 0; I < CM.size(); ++I) {
    Snapshot Got{
        labelingSnapshot(CM[I], NumNts, BM->labelFunction(CM[I], Shared))};
    Snapshot Want{
        labelingSnapshot(CM[I], NumNts, BMRef->labelFunction(CM[I], Fresh))};
    EXPECT_EQ(Got, Want) << "function " << I;
  }
}

TEST(L1Cache, PerWorkerL1sUnderConcurrencyBitIdentical) {
  // Four workers, each with a private LabelerScratch (as CompileService's
  // workers hold one each), share one on-demand backend. All shared-cache
  // traffic goes through the seqlock; the labeling must be bit-identical
  // to a serial pass, and every node is one probe.
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);

  OnDemandAutomaton Serial(T->G, &T->Dyn);
  for (ir::IRFunction &F : Corpus)
    Serial.labelFunction(F);
  Snapshot Ref = snapshot(T->G, Corpus, Serial);

  std::unique_ptr<LabelerBackend> Parallel = onDemandBackend(*T);
  constexpr unsigned NumWorkers = 4;
  std::atomic<std::size_t> Next{0};
  std::vector<SelectionStats> Stats(NumWorkers);
  auto Work = [&](unsigned W) {
    LabelerScratch Scratch;
    std::size_t I;
    while ((I = Next.fetch_add(1, std::memory_order_relaxed)) < Corpus.size())
      Parallel->labelFunction(Corpus[I], Scratch, &Stats[W]);
  };
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < NumWorkers; ++W)
    Workers.emplace_back(Work, W);
  for (std::thread &Th : Workers)
    Th.join();

  EXPECT_EQ(snapshot(T->G, Corpus, automatonOf(*Parallel)), Ref);
  EXPECT_EQ(Serial.numStates(), Parallel->numStates());
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
  // shrinks while it learns, and stops growing once warm. The backend a
  // compile service runs on reports exactly that footprint, a snapshot
  // where the service's labeling counters are sums.
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  std::unique_ptr<LabelerBackend> B = onDemandBackend(*T);
  const OnDemandAutomaton &A = automatonOf(*B);
  std::size_t Empty = A.memoryBytes();
  EXPECT_GE(Empty, A.stateTable().memoryBytes());
  EXPECT_EQ(B->memoryBytes(), Empty);

  pipeline::CompileService::Options Opts;
  Opts.Workers = 2;
  pipeline::CompileService Svc(T->G, &T->Dyn, *B, std::move(Opts));
  compileBatch(Svc, Ptrs);
  std::size_t Cold = Svc.backend().memoryBytes();
  SelectionStats Warm1 = compileBatch(Svc, Ptrs);
  std::size_t AfterWarm1 = Svc.backend().memoryBytes();
  compileBatch(Svc, Ptrs);
  std::size_t AfterWarm2 = Svc.backend().memoryBytes();
  EXPECT_GT(Cold, Empty);
  EXPECT_GT(A.memoryBytes(), A.stateTable().memoryBytes());
  EXPECT_EQ(Warm1.StatesComputed, 0u);
  EXPECT_EQ(AfterWarm1, Cold);
  EXPECT_EQ(AfterWarm2, AfterWarm1);
  EXPECT_EQ(AfterWarm2, A.memoryBytes());
  EXPECT_EQ(Svc.statsSnapshot().Label.NodesLabeled, 3 * Warm1.NodesLabeled);
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

//===----------------------------------------------------------------------===//
// Concurrent labeling: CompileService workers on one shared backend
//===----------------------------------------------------------------------===//

TEST(ParallelLabel, FourThreadsBitIdenticalToSerial) {
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G, 1500);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  std::unique_ptr<LabelerBackend> Serial = onDemandBackend(*T);
  SelectionStats SerialStats = compileWithWorkers(*T, *Serial, Ptrs, 1);
  Snapshot Ref = snapshot(T->G, Corpus, automatonOf(*Serial));

  std::unique_ptr<LabelerBackend> Parallel = onDemandBackend(*T);
  SelectionStats ParStats = compileWithWorkers(*T, *Parallel, Ptrs, 4);
  Snapshot Got = snapshot(T->G, Corpus, automatonOf(*Parallel));

  EXPECT_EQ(Ref, Got);
  // Same corpus, same content-addressed states: the tables converge to the
  // same size regardless of interleaving.
  EXPECT_EQ(automatonOf(*Serial).numStates(),
            automatonOf(*Parallel).numStates());
  EXPECT_EQ(automatonOf(*Serial).numTransitions(),
            automatonOf(*Parallel).numTransitions());
  EXPECT_EQ(SerialStats.NodesLabeled, ParStats.NodesLabeled);
}

TEST(ParallelLabel, MatchesDPLabelerPerFunction) {
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G, 1500);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  // DP references first: DPLabeling owns its table (indexed by node id),
  // so the automaton relabeling the nodes afterwards does not disturb it.
  std::vector<DPLabeling> Refs;
  for (ir::IRFunction &F : Corpus)
    Refs.push_back(DPLabeler(T->G, &T->Dyn).label(F));

  std::unique_ptr<LabelerBackend> B = onDemandBackend(*T);
  compileWithWorkers(*T, *B, Ptrs, 4);
  for (std::size_t I = 0; I < Corpus.size(); ++I)
    test::expectEquivalent(T->G, Corpus[I], Refs[I], automatonOf(*B));
}

TEST(ParallelLabel, WarmSecondPassIsAllHitsUnderThreads) {
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G, 1500);
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  std::unique_ptr<LabelerBackend> B = onDemandBackend(*T);
  const OnDemandAutomaton &A = automatonOf(*B);
  pipeline::CompileService::Options Opts;
  Opts.Workers = 4;
  pipeline::CompileService Svc(T->G, &T->Dyn, *B, std::move(Opts));
  compileBatch(Svc, Ptrs);
  unsigned ColdStates = A.numStates();
  std::size_t ColdTransitions = A.numTransitions();

  SelectionStats Warm = compileBatch(Svc, Ptrs);
  EXPECT_EQ(A.numStates(), ColdStates);
  EXPECT_EQ(A.numTransitions(), ColdTransitions);
  EXPECT_EQ(Warm.StatesComputed, 0u);
  EXPECT_EQ(Warm.CacheHits, Warm.CacheProbes);
}

TEST(ParallelLabel, ManySmallFunctionsStress) {
  // Lots of tiny functions maximize hand-out churn and shard contention;
  // eight workers on the shared automaton must still converge to the same
  // state set as a serial pass.
  auto T = cantFail(makeTarget("vm64"));
  const Profile *P = findProfile("gzip-like");
  ASSERT_NE(P, nullptr);
  std::vector<ir::IRFunction> Corpus =
      cantFail(generateBatch(*P, T->G, /*Count=*/64, /*TargetNodes=*/120));
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  std::unique_ptr<LabelerBackend> Serial = onDemandBackend(*T);
  compileWithWorkers(*T, *Serial, Ptrs, 1);
  Snapshot Ref = snapshot(T->G, Corpus, automatonOf(*Serial));

  std::unique_ptr<LabelerBackend> Parallel = onDemandBackend(*T);
  compileWithWorkers(*T, *Parallel, Ptrs, 8);
  EXPECT_EQ(Ref, snapshot(T->G, Corpus, automatonOf(*Parallel)));
  EXPECT_EQ(automatonOf(*Serial).numStates(),
            automatonOf(*Parallel).numStates());
}

TEST(ParallelLabel, ZeroThreadsAutoSelectsAndLabelsWholeCorpus) {
  // Workers = 0 resolves to the hardware concurrency (at least one), and
  // the auto-selected pool labels the whole corpus.
  auto T = cantFail(makeTarget("mips"));
  const Profile *P = findProfile("art-like");
  ASSERT_NE(P, nullptr);
  std::vector<ir::IRFunction> Corpus =
      cantFail(generateBatch(*P, T->G, /*Count=*/3, /*TargetNodes=*/400));
  std::vector<ir::IRFunction *> Ptrs = pointers(Corpus);

  std::unique_ptr<LabelerBackend> B = onDemandBackend(*T);
  pipeline::CompileService::Options Opts;
  Opts.Workers = 0;
  pipeline::CompileService Svc(T->G, &T->Dyn, *B, std::move(Opts));
  EXPECT_EQ(Svc.workers(), std::max(1u, std::thread::hardware_concurrency()));
  SelectionStats Stats = compileBatch(Svc, Ptrs);
  std::uint64_t Total = 0;
  for (const ir::IRFunction &F : Corpus)
    Total += F.size();
  EXPECT_EQ(Stats.NodesLabeled, Total);
}

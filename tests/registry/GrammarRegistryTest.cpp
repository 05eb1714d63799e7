//===- tests/registry/GrammarRegistryTest.cpp -----------------------------===//
//
// Part of the odburg project.
//
// The multi-tenant registry's contracts: name resolution (built-in
// targets, spool-directory grammar text, resident fingerprints — and
// nothing path-shaped), backend sharing across acquires, budget-driven
// LRU eviction with the pressure fallback when pinned entries alone
// exceed the budget, epoch-based hot swap that keeps old leases on the
// version they started with, and the spool round trips (compiled tables,
// warm snapshots) that let a restarted process skip regeneration and
// re-warming.
//
//===----------------------------------------------------------------------===//

#include "registry/GrammarRegistry.h"

#include "grammar/GrammarParser.h"
#include "select/DynCost.h"
#include "support/FaultInjection.h"
#include "targets/Target.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

using namespace odburg;
using namespace odburg::registry;

namespace {

/// A throwaway spool directory, removed with everything in it.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/odburg-registry-test-XXXXXX";
    const char *P = ::mkdtemp(Buf);
    EXPECT_NE(P, nullptr);
    Path = P ? P : "";
  }
  ~TempDir() {
    std::error_code EC;
    if (!Path.empty())
      std::filesystem::remove_all(Path, EC);
  }
};

void writeFile(const std::string &Path, const char *Text) {
  std::ofstream OS(Path, std::ios::trunc);
  ASSERT_TRUE(static_cast<bool>(OS));
  OS << Text;
}

std::string hexFingerprint(std::uint64_t Fp) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(Fp));
  return Buf;
}

/// Creates the entry's backend of kind \p K and labels one tree through
/// it, so the entry holds warm, nonzero-byte state. A random tree keeps
/// this grammar-agnostic (built-in targets and the running example name
/// their operators differently).
void warmBackend(const Lease &L, BackendKind K) {
  LabelerBackend *B = cantFail(L->backend(K));
  LabelerScratch Scratch;
  ir::IRFunction F;
  test::RandomTreeBuilder Builder(L->grammar(K), /*Seed=*/42);
  F.addRoot(Builder.build(F, 40));
  B->labelFunction(F, Scratch);
}

} // namespace

TEST(GrammarRegistry, FingerprintIsStableAndContentSensitive) {
  Grammar A = cantFail(parseGrammar(test::runningExampleText()));
  Grammar B = cantFail(parseGrammar(test::runningExampleText()));
  Grammar C = cantFail(parseGrammar(test::runningExampleFixedText()));
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
  EXPECT_NE(A.fingerprint(), C.fingerprint());
}

TEST(GrammarRegistry, AcquireSharesOneEntryAndItsBackends) {
  GrammarRegistry R({});
  Lease L1 = cantFail(R.acquire("x86"));
  Lease L2 = cantFail(R.acquire("x86"));
  EXPECT_EQ(L1.entry(), L2.entry());
  EXPECT_EQ(L1->name(), "x86");
  EXPECT_EQ(L1->epoch(), 1u);

  // The backend is per-entry shared state: both leases see one object.
  LabelerBackend *B1 = cantFail(L1->backend(BackendKind::OnDemand));
  LabelerBackend *B2 = cantFail(L2->backend(BackendKind::OnDemand));
  EXPECT_EQ(B1, B2);

  RegistryStats S = R.statsSnapshot();
  EXPECT_EQ(S.ResidentGrammars, 1u);
  EXPECT_EQ(S.Acquires, 2u);
  EXPECT_EQ(S.Evictions, 0u);
}

TEST(GrammarRegistry, ResolvesResidentEntriesByFingerprint) {
  GrammarRegistry R({});
  Lease L = cantFail(R.acquire("mips"));
  Lease ByFp = cantFail(R.acquire(hexFingerprint(L->fingerprint())));
  EXPECT_EQ(ByFp.entry(), L.entry());
}

TEST(GrammarRegistry, LoadsGrammarTextFromTheSpoolDirectory) {
  TempDir D;
  writeFile(D.Path + "/example.odg", test::runningExampleText());
  GrammarRegistry::Options O;
  O.Dir = D.Path;
  GrammarRegistry R(std::move(O));

  Lease L = cantFail(R.acquire("example"));
  EXPECT_EQ(L->name(), "example");
  Grammar Parsed = cantFail(parseGrammar(test::runningExampleText()));
  EXPECT_EQ(L->fingerprint(), Parsed.fingerprint());

  // The ?memop hook binds from targets::standardHooks(), so the dyn-cost
  // rule is live: on-demand labeling through the registry entry matches
  // the DP reference from the same entry.
  LabelerBackend *DP = cantFail(L->backend(BackendKind::DP));
  LabelerBackend *OD = cantFail(L->backend(BackendKind::OnDemand));
  LabelerScratch S1, S2;
  ir::IRFunction F;
  test::buildStoreTree(F, L->grammar(BackendKind::OnDemand), 0, 0, 1);
  const Labeling &Ref = DP->labelFunction(F, S1);
  const Labeling &Got = OD->labelFunction(F, S2);
  test::expectEquivalent(L->grammar(BackendKind::OnDemand), F, Ref, Got);
}

TEST(GrammarRegistry, RejectsPathShapedAndUnknownNames) {
  TempDir D;
  GrammarRegistry::Options O;
  O.Dir = D.Path;
  GrammarRegistry R(std::move(O));

  for (const char *Bad : {"../etc/passwd", "a/b", "a.b", "", "spaces here"}) {
    Expected<Lease> L = R.acquire(Bad);
    ASSERT_FALSE(static_cast<bool>(L)) << "name '" << Bad << "'";
    EXPECT_EQ(L.kind(), ErrorKind::MalformedInput) << "name '" << Bad << "'";
  }
  // Well-formed but absent: a typed failure, not MalformedInput.
  Expected<Lease> Missing = R.acquire("no-such-grammar");
  ASSERT_FALSE(static_cast<bool>(Missing));

  // No spool directory at all: only built-ins resolve.
  GrammarRegistry Bare({});
  EXPECT_FALSE(static_cast<bool>(Bare.acquire("no-such-grammar")));
  EXPECT_TRUE(static_cast<bool>(Bare.acquire("x86")));
}

TEST(GrammarRegistry, PinnedEntriesDegradeToPressureNotEviction) {
  GrammarRegistry::Options O;
  O.MemBudgetBytes = 1; // Anything resident is over budget.
  GrammarRegistry R(std::move(O));
  Lease L = cantFail(R.acquire("x86"));
  warmBackend(L, BackendKind::OnDemand);
  ASSERT_GT(L->backendBytes(), 0u);

  R.maintain();
  RegistryStats S = R.statsSnapshot();
  EXPECT_EQ(S.Evictions, 0u) << "pinned entries must never be evicted";
  EXPECT_TRUE(S.MemoryPressure)
      << "over budget with everything pinned falls back to pressure";
  EXPECT_GT(L->backendBytes(), 0u);
}

TEST(GrammarRegistry, EvictsUnpinnedEntriesAndRebuildsOnReaccess) {
  GrammarRegistry::Options O;
  O.MemBudgetBytes = 1;
  GrammarRegistry R(std::move(O));
  {
    Lease L = cantFail(R.acquire("x86"));
    warmBackend(L, BackendKind::OnDemand);
  }
  R.maintain();
  RegistryStats S = R.statsSnapshot();
  EXPECT_GE(S.Evictions, 1u);
  EXPECT_EQ(R.backendBytes(), 0u);
  EXPECT_FALSE(S.MemoryPressure)
      << "pressure releases once eviction brings the total under budget";
  // The entry survives eviction; only its backends were dropped. A
  // re-access cold-starts a fresh backend.
  Lease L = cantFail(R.acquire("x86"));
  EXPECT_EQ(L->backendBytes(), 0u);
  warmBackend(L, BackendKind::OnDemand);
  EXPECT_GT(L->backendBytes(), 0u);
}

TEST(GrammarRegistry, EvictionIsLeastRecentlyUsedFirst) {
  // Size both backends with an unbudgeted registry, then replay into one
  // whose budget fits everything but one byte: only the LRU entry (x86,
  // used first) must go.
  std::size_t X86Bytes = 0, MipsBytes = 0;
  {
    GrammarRegistry R({});
    Lease X = cantFail(R.acquire("x86"));
    warmBackend(X, BackendKind::OnDemand);
    X86Bytes = X->backendBytes();
    Lease M = cantFail(R.acquire("mips"));
    warmBackend(M, BackendKind::OnDemand);
    MipsBytes = M->backendBytes();
  }
  ASSERT_GT(X86Bytes, 0u);
  ASSERT_GT(MipsBytes, 0u);

  GrammarRegistry::Options O;
  O.MemBudgetBytes = X86Bytes + MipsBytes - 1;
  GrammarRegistry R(std::move(O));
  {
    Lease X = cantFail(R.acquire("x86"));
    warmBackend(X, BackendKind::OnDemand);
  }
  {
    Lease M = cantFail(R.acquire("mips"));
    warmBackend(M, BackendKind::OnDemand);
  }
  R.maintain();
  EXPECT_EQ(R.statsSnapshot().Evictions, 1u);
  Lease X = cantFail(R.acquire("x86"));
  Lease M = cantFail(R.acquire("mips"));
  EXPECT_EQ(X->backendBytes(), 0u) << "the older entry should be evicted";
  EXPECT_GT(M->backendBytes(), 0u) << "the newer entry should survive";
}

TEST(GrammarRegistry, FaultSiteForcesEvictionWithoutBudget) {
  GrammarRegistry R({});
  {
    Lease L = cantFail(R.acquire("x86"));
    warmBackend(L, BackendKind::OnDemand);
  }
  ASSERT_GT(R.backendBytes(), 0u);
  cantFail(fault::configure("registry-evict:nth=1"));
  R.maintain();
  fault::reset();
  EXPECT_GE(R.statsSnapshot().Evictions, 1u);
  EXPECT_EQ(R.backendBytes(), 0u);
  // Eviction is a performance event, not a correctness one: re-access
  // still serves.
  Lease L = cantFail(R.acquire("x86"));
  warmBackend(L, BackendKind::OnDemand);
}

TEST(GrammarRegistry, HotSwapKeepsOldLeasesOnTheirEpoch) {
  GrammarRegistry R({});
  Grammar V1 = cantFail(parseGrammar(test::runningExampleText()));
  DynCostTable D1 = cantFail(DynCostTable::build(V1, test::runningExampleHooks()));
  Lease Old = cantFail(R.registerGrammar("g", std::move(V1), std::move(D1)));
  EXPECT_EQ(Old->epoch(), 1u);
  std::uint64_t OldFp = Old->fingerprint();

  // Same content again: not a swap, same entry.
  Grammar V1b = cantFail(parseGrammar(test::runningExampleText()));
  DynCostTable D1b =
      cantFail(DynCostTable::build(V1b, test::runningExampleHooks()));
  Lease Same = cantFail(R.registerGrammar("g", std::move(V1b), std::move(D1b)));
  EXPECT_EQ(Same.entry(), Old.entry());
  EXPECT_EQ(R.statsSnapshot().HotSwaps, 0u);

  // Different content: epoch bumps for new acquires, the old lease keeps
  // its version alive and untouched.
  Grammar V2 = cantFail(parseGrammar(test::runningExampleFixedText()));
  DynCostTable D2 = cantFail(DynCostTable::build(V2, {}));
  Lease New = cantFail(R.registerGrammar("g", std::move(V2), std::move(D2)));
  EXPECT_EQ(New->epoch(), 2u);
  EXPECT_NE(New.entry(), Old.entry());
  EXPECT_EQ(R.statsSnapshot().HotSwaps, 1u);
  EXPECT_EQ(Old->epoch(), 1u);
  EXPECT_EQ(Old->fingerprint(), OldFp);
  warmBackend(Old, BackendKind::OnDemand); // Old version still labels.

  Lease Fresh = cantFail(R.acquire("g"));
  EXPECT_EQ(Fresh.entry(), New.entry());
  EXPECT_EQ(R.statsSnapshot().ResidentGrammars, 1u);
}

TEST(GrammarRegistry, ReloadHotSwapsWhenTheSpoolFileChanges) {
  TempDir D;
  writeFile(D.Path + "/g.odg", test::runningExampleText());
  GrammarRegistry::Options O;
  O.Dir = D.Path;
  GrammarRegistry R(std::move(O));

  Lease Old = cantFail(R.acquire("g"));
  EXPECT_EQ(Old->epoch(), 1u);

  // Unchanged file: reload is a no-op on the resident entry.
  Lease Same = cantFail(R.reload("g"));
  EXPECT_EQ(Same.entry(), Old.entry());
  EXPECT_EQ(R.statsSnapshot().HotSwaps, 0u);

  writeFile(D.Path + "/g.odg", test::runningExampleFixedText());
  Lease New = cantFail(R.reload("g"));
  EXPECT_EQ(New->epoch(), 2u);
  EXPECT_NE(New.entry(), Old.entry());
  EXPECT_EQ(R.statsSnapshot().HotSwaps, 1u);
  EXPECT_EQ(Old->epoch(), 1u);
}

TEST(GrammarRegistry, LeaseCloneKeepsTheEntryPinned) {
  GrammarRegistry::Options O;
  O.MemBudgetBytes = 1;
  GrammarRegistry R(std::move(O));
  Lease Pin;
  {
    Lease L = cantFail(R.acquire("x86"));
    warmBackend(L, BackendKind::OnDemand);
    Pin = L.clone();
  }
  // The original lease is gone; the clone alone must keep the backends.
  R.maintain();
  EXPECT_EQ(R.statsSnapshot().Evictions, 0u);
  EXPECT_GT(Pin->backendBytes(), 0u);
  Pin.release();
  R.maintain();
  EXPECT_GE(R.statsSnapshot().Evictions, 1u);
}

TEST(GrammarRegistry, SpoolsCompiledTablesAndLoadsThemOnRestart) {
  TempDir D;
  {
    GrammarRegistry::Options O;
    O.Dir = D.Path;
    GrammarRegistry R(std::move(O));
    Lease L = cantFail(R.acquire("x86"));
    cantFail(L->backend(BackendKind::Offline));
    EXPECT_EQ(R.statsSnapshot().TablesLoads, 0u) << "first build generates";
  }
  EXPECT_TRUE(std::filesystem::exists(D.Path + "/x86.tables"));
  {
    GrammarRegistry::Options O;
    O.Dir = D.Path;
    GrammarRegistry R(std::move(O));
    Lease L = cantFail(R.acquire("x86"));
    cantFail(L->backend(BackendKind::Offline));
    EXPECT_EQ(R.statsSnapshot().TablesLoads, 1u)
        << "the restart should load the spooled tables, not regenerate";
  }
}

TEST(GrammarRegistry, PartitionedDumpOfferedAsOfflineTablesFailsTyped) {
  // A hybrid's partitioned dump copied over the offline lane's tables
  // passes CompiledTables::load (every member operator is dyn-free) but
  // has no rows for the dyn-cost remainder. The offline lane must refuse
  // it, fall back to generation, and report the grammar's dynamic costs
  // typed — not label with it and crash.
  TempDir D;
  auto Register = [](GrammarRegistry &R) {
    auto T = cantFail(targets::makeTarget("x86"));
    return cantFail(
        R.registerGrammar("foo", std::move(T->G), std::move(T->Dyn)));
  };
  {
    GrammarRegistry::Options O;
    O.Dir = D.Path;
    GrammarRegistry R(std::move(O));
    Lease L = Register(R);
    cantFail(L->backend(BackendKind::Hybrid));
  }
  ASSERT_TRUE(std::filesystem::exists(D.Path + "/foo.hybrid.tables"));
  std::filesystem::copy_file(D.Path + "/foo.hybrid.tables",
                             D.Path + "/foo.tables");

  GrammarRegistry::Options O;
  O.Dir = D.Path;
  GrammarRegistry R(std::move(O));
  Lease L = Register(R);
  Expected<LabelerBackend *> Off = L->backend(BackendKind::Offline);
  ASSERT_FALSE(static_cast<bool>(Off));
  EXPECT_EQ(Off.kind(), ErrorKind::UnsupportedDynamicCosts) << Off.message();
  EXPECT_EQ(R.statsSnapshot().TablesLoads, 0u);
  // The dump still serves the lane it was written for.
  warmBackend(L, BackendKind::Hybrid);
  EXPECT_EQ(R.statsSnapshot().TablesLoads, 1u);
}

TEST(GrammarRegistry, WarmSnapshotsSurviveARestart) {
  TempDir D;
  writeFile(D.Path + "/example.odg", test::runningExampleText());
  unsigned WarmStates = 0;
  {
    GrammarRegistry::Options O;
    O.Dir = D.Path;
    GrammarRegistry R(std::move(O));
    Lease L = cantFail(R.acquire("example"));
    warmBackend(L, BackendKind::OnDemand);
    WarmStates = cantFail(L->backend(BackendKind::OnDemand))->numStates();
    ASSERT_GT(WarmStates, 0u);
    RegistryStats S = R.statsSnapshot();
    EXPECT_EQ(S.SnapshotHits, 0u);
    EXPECT_EQ(S.SnapshotMisses, 1u) << "nothing spooled yet: a cold start";
    cantFail(R.dumpWarmSnapshots());
  }
  EXPECT_TRUE(std::filesystem::exists(D.Path + "/example.warm"));
  {
    GrammarRegistry::Options O;
    O.Dir = D.Path;
    GrammarRegistry R(std::move(O));
    Lease L = cantFail(R.acquire("example"));
    LabelerBackend *B = cantFail(L->backend(BackendKind::OnDemand));
    RegistryStats S = R.statsSnapshot();
    EXPECT_EQ(S.SnapshotHits, 1u);
    EXPECT_EQ(S.SnapshotMisses, 0u);
    EXPECT_EQ(B->numStates(), WarmStates)
        << "the restarted backend starts as warm as the drained one ended";
  }
}

TEST(GrammarRegistry, FaultInjectedSnapshotLoadDegradesToColdStart) {
  TempDir D;
  writeFile(D.Path + "/example.odg", test::runningExampleText());
  {
    GrammarRegistry::Options O;
    O.Dir = D.Path;
    GrammarRegistry R(std::move(O));
    Lease L = cantFail(R.acquire("example"));
    warmBackend(L, BackendKind::OnDemand);
    cantFail(R.dumpWarmSnapshots());
  }
  cantFail(fault::configure("registry-load:nth=1"));
  {
    GrammarRegistry::Options O;
    O.Dir = D.Path;
    GrammarRegistry R(std::move(O));
    Lease L = cantFail(R.acquire("example"));
    warmBackend(L, BackendKind::OnDemand); // Serves despite the fault.
    RegistryStats S = R.statsSnapshot();
    EXPECT_EQ(S.SnapshotHits, 0u);
    EXPECT_EQ(S.SnapshotMisses, 1u) << "the injected fault is a miss";
  }
  fault::reset();
}

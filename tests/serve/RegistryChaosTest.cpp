//===- tests/serve/RegistryChaosTest.cpp ----------------------------------===//
//
// Part of the odburg project.
//
// Multi-tenant serving drills over the GRAMMAR/RELOAD protocol: clients
// on different grammars multiplexed through one server must each get the
// byte-exact assembly their grammar's standalone pipeline produces —
// while the governor evicts behind them, while fault injection kills
// snapshot loads, and while an admin hot-swaps a grammar mid-stream.
// The TSan CI job runs this binary: every drill must also be race-clean.
//
//===----------------------------------------------------------------------===//

#include "serve/TcpServer.h"

#include "ir/Node.h"
#include "pipeline/CompileService.h"
#include "registry/GrammarRegistry.h"
#include "support/FaultInjection.h"
#include "targets/Target.h"
#include "workload/Synthetic.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace odburg;
using namespace odburg::serve;
using namespace odburg::targets;
using namespace odburg::workload;

namespace {

struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/odburg-regchaos-XXXXXX";
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

std::vector<ir::IRFunction> makeCorpus(const Grammar &G, unsigned Count,
                                       unsigned Nodes = 100) {
  const Profile *P = findProfile("gzip-like");
  EXPECT_NE(P, nullptr);
  return cantFail(generateBatch(*P, G, Count, Nodes));
}

std::string corpusToWire(const std::vector<ir::IRFunction> &Corpus,
                         const Grammar &G) {
  std::string Out;
  for (const ir::IRFunction &F : Corpus) {
    for (const ir::Node *Root : F.roots()) {
      Out += ir::toSExpr(Root, G);
      Out += '\n';
    }
    Out += '\n';
  }
  return Out;
}

/// The standalone answer for \p Corpus over the *full* (dynamic-cost)
/// grammar — what a registry lane on any backend must reproduce.
std::string referenceAsm(const Grammar &G, const DynCostTable &Dyn,
                         std::vector<ir::IRFunction> &Corpus) {
  std::unique_ptr<LabelerBackend> B =
      cantFail(LabelerBackend::create(BackendKind::OnDemand, G, &Dyn));
  pipeline::WorkerState WS;
  std::string Out;
  for (ir::IRFunction &F : Corpus) {
    pipeline::CompileResult R;
    pipeline::compileFunctionWith(G, &Dyn, *B, F, WS, R);
    Out += R.Asm;
  }
  return Out;
}

std::string readToEof(Socket &S) {
  std::string Out;
  char Buf[4096];
  for (long N = S.readSome(Buf, sizeof(Buf)); N > 0;
       N = S.readSome(Buf, sizeof(Buf)))
    Out.append(Buf, static_cast<std::size_t>(N));
  return Out;
}

/// Reads until \p Needle appears in the accumulated output (or EOF).
std::string readUntil(Socket &S, const std::string &Needle) {
  std::string Out;
  char Buf[4096];
  while (Out.find(Needle) == std::string::npos) {
    long N = S.readSome(Buf, sizeof(Buf));
    if (N <= 0)
      break;
    Out.append(Buf, static_cast<std::size_t>(N));
  }
  return Out;
}

std::string roundTrip(std::uint16_t Port, const std::string &Wire) {
  Socket S = cantFail(Socket::connectTo("127.0.0.1", Port));
  EXPECT_TRUE(S.writeAll(Wire));
  S.shutdownWrite();
  return readToEof(S);
}

TcpServer::Options registryOptions() {
  TcpServer::Options O;
  O.Workers = 2;
  O.QueueCapacity = 8;
  return O;
}

} // namespace

TEST(RegistryChaos, ConcurrentClientsOnDifferentGrammarsAreByteIdentical) {
  auto Srv_T = cantFail(makeTarget("x86"));
  registry::GrammarRegistry R({});
  auto Srv = cantFail(TcpServer::start(R, "x86", registryOptions()));

  // Per-grammar corpora and standalone references.
  auto Mips = cantFail(makeTarget("mips"));
  auto Sparc = cantFail(makeTarget("sparc"));
  std::vector<ir::IRFunction> MipsCorpus = makeCorpus(Mips->G, 10);
  std::vector<ir::IRFunction> SparcCorpus = makeCorpus(Sparc->G, 10);
  std::vector<ir::IRFunction> HostCorpus = makeCorpus(Srv_T->G, 10);
  std::string MipsWire =
      "GRAMMAR mips\n" + corpusToWire(MipsCorpus, Mips->G);
  std::string SparcWire =
      "GRAMMAR sparc\nBACKEND hybrid\n" + corpusToWire(SparcCorpus, Sparc->G);
  std::string HostWire = corpusToWire(HostCorpus, Srv_T->G);
  std::string MipsRef = referenceAsm(Mips->G, Mips->Dyn, MipsCorpus);
  std::string SparcRef = referenceAsm(Sparc->G, Sparc->Dyn, SparcCorpus);
  std::string HostRef = referenceAsm(Srv_T->G, Srv_T->Dyn, HostCorpus);
  ASSERT_NE(MipsRef, SparcRef) << "grammars too alike to prove isolation";

  // Two clients per grammar plus a handshake-free client on the server's
  // own target, all concurrent — lanes must never cross.
  std::vector<std::thread> Clients;
  std::vector<std::string> Got(5);
  for (int I = 0; I < 2; ++I)
    Clients.emplace_back(
        [&, I] { Got[I] = roundTrip(Srv->port(), MipsWire); });
  for (int I = 2; I < 4; ++I)
    Clients.emplace_back(
        [&, I] { Got[I] = roundTrip(Srv->port(), SparcWire); });
  Clients.emplace_back([&] { Got[4] = roundTrip(Srv->port(), HostWire); });
  for (std::thread &Th : Clients)
    Th.join();

  EXPECT_EQ(Got[0], MipsRef);
  EXPECT_EQ(Got[1], MipsRef);
  EXPECT_EQ(Got[2], SparcRef);
  EXPECT_EQ(Got[3], SparcRef);
  EXPECT_EQ(Got[4], HostRef);

  // mips, sparc, and the server's default x86.
  registry::RegistryStats S = R.statsSnapshot();
  EXPECT_EQ(S.ResidentGrammars, 3u);
  EXPECT_GE(S.Acquires, 4u);
  Srv->stop();
}

TEST(RegistryChaos, EvictionRacesLiveTrafficWithoutCorruption) {
  // A one-byte budget keeps the governor evicting everything the moment
  // it goes unpinned; lanes reap almost immediately after their last
  // connection. Traffic across rounds must stay byte-identical through
  // every evict/rebuild cycle.
  registry::GrammarRegistry::Options RO;
  RO.MemBudgetBytes = 1;
  registry::GrammarRegistry R(std::move(RO));
  TcpServer::Options SO = registryOptions();
  SO.RegistryLaneIdleMillis = 1;
  auto Srv = cantFail(TcpServer::start(R, "x86", SO));

  auto Mips = cantFail(makeTarget("mips"));
  auto Sparc = cantFail(makeTarget("sparc"));
  std::vector<ir::IRFunction> MipsCorpus = makeCorpus(Mips->G, 6, 60);
  std::vector<ir::IRFunction> SparcCorpus = makeCorpus(Sparc->G, 6, 60);
  std::string MipsWire = "GRAMMAR mips\n" + corpusToWire(MipsCorpus, Mips->G);
  std::string SparcWire =
      "GRAMMAR sparc\n" + corpusToWire(SparcCorpus, Sparc->G);
  std::string MipsRef = referenceAsm(Mips->G, Mips->Dyn, MipsCorpus);
  std::string SparcRef = referenceAsm(Sparc->G, Sparc->Dyn, SparcCorpus);

  for (int Round = 0; Round < 4; ++Round) {
    std::vector<std::thread> Clients;
    std::vector<std::string> Got(2);
    Clients.emplace_back([&] { Got[0] = roundTrip(Srv->port(), MipsWire); });
    Clients.emplace_back([&] { Got[1] = roundTrip(Srv->port(), SparcWire); });
    for (std::thread &Th : Clients)
      Th.join();
    EXPECT_EQ(Got[0], MipsRef) << "round " << Round;
    EXPECT_EQ(Got[1], SparcRef) << "round " << Round;
    // Let lanes go idle, get reaped, and the entries evicted before the
    // next round cold-starts them again.
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }

  Srv->stop();
  registry::RegistryStats S = R.statsSnapshot();
  EXPECT_GE(S.Evictions, 1u)
      << "a one-byte budget must have evicted between rounds";
}

TEST(RegistryChaos, ForcedEvictionFaultSiteKeepsTrafficCorrect) {
  // registry-evict fires on every maintain() tick: backends are dropped
  // as soon as they go unpinned even with no budget at all. Correctness
  // must not depend on residency.
  registry::GrammarRegistry R({});
  TcpServer::Options SO = registryOptions();
  SO.RegistryLaneIdleMillis = 1;
  auto Srv = cantFail(TcpServer::start(R, "x86", SO));

  auto Mips = cantFail(makeTarget("mips"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(Mips->G, 6, 60);
  std::string Wire = "GRAMMAR mips\n" + corpusToWire(Corpus, Mips->G);
  std::string Ref = referenceAsm(Mips->G, Mips->Dyn, Corpus);

  cantFail(fault::configure("registry-evict:every=1"));
  for (int Round = 0; Round < 3; ++Round) {
    EXPECT_EQ(roundTrip(Srv->port(), Wire), Ref) << "round " << Round;
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  fault::reset();
  Srv->stop();
  EXPECT_GE(R.statsSnapshot().Evictions, 1u);
}

TEST(RegistryChaos, SnapshotRoundTripAndFaultedLoadColdStart) {
  auto Mips = cantFail(makeTarget("mips"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(Mips->G, 8, 60);
  std::string Wire = "GRAMMAR mips\n" + corpusToWire(Corpus, Mips->G);
  std::string Ref = referenceAsm(Mips->G, Mips->Dyn, Corpus);
  TempDir D;

  // Round 1: cold start, then drain the warm state to the spool.
  {
    registry::GrammarRegistry::Options RO;
    RO.Dir = D.Path;
    registry::GrammarRegistry R(std::move(RO));
    auto Srv = cantFail(TcpServer::start(R, "x86", registryOptions()));
    EXPECT_EQ(roundTrip(Srv->port(), Wire), Ref);
    Srv->stop();
    cantFail(R.dumpWarmSnapshots());
    EXPECT_EQ(R.statsSnapshot().SnapshotHits, 0u);
  }
  ASSERT_TRUE(std::filesystem::exists(D.Path + "/mips.warm"));

  // Round 2: the snapshot load is fault-injected — the server must cold
  // start (a counted miss), never crash or serve another grammar's state.
  cantFail(fault::configure("registry-load:every=1"));
  {
    registry::GrammarRegistry::Options RO;
    RO.Dir = D.Path;
    registry::GrammarRegistry R(std::move(RO));
    auto Srv = cantFail(TcpServer::start(R, "x86", registryOptions()));
    EXPECT_EQ(roundTrip(Srv->port(), Wire), Ref);
    Srv->stop();
    registry::RegistryStats S = R.statsSnapshot();
    EXPECT_EQ(S.SnapshotHits, 0u);
    EXPECT_GE(S.SnapshotMisses, 1u);
  }
  fault::reset();

  // Round 3: disarmed, the restart serves out of the warm snapshot.
  {
    registry::GrammarRegistry::Options RO;
    RO.Dir = D.Path;
    registry::GrammarRegistry R(std::move(RO));
    auto Srv = cantFail(TcpServer::start(R, "x86", registryOptions()));
    EXPECT_EQ(roundTrip(Srv->port(), Wire), Ref);
    Srv->stop();
    EXPECT_GE(R.statsSnapshot().SnapshotHits, 1u);
  }
}

namespace {

/// Store(Reg a, Add(Load(Reg b), Reg c)) — the read-modify-write shape
/// whose selection the ?memop hook gates (fused only when a == b).
void buildRmwTree(ir::IRFunction &F, const Grammar &G, std::int64_t A,
                  std::int64_t B, std::int64_t C) {
  OperatorId RegOp = G.findOperator("Reg");
  OperatorId LoadOp = G.findOperator("Load");
  OperatorId AddOp = G.findOperator("Add");
  OperatorId StoreOp = G.findOperator("Store");
  ir::Node *Dst = F.makeLeaf(RegOp, A);
  ir::Node *Src = F.makeLeaf(RegOp, B);
  SmallVector<ir::Node *, 2> C1{Src};
  ir::Node *Ld = F.makeNode(LoadOp, C1);
  SmallVector<ir::Node *, 2> C2{Ld, F.makeLeaf(RegOp, C)};
  ir::Node *Add = F.makeNode(AddOp, C2);
  SmallVector<ir::Node *, 2> C3{Dst, Add};
  F.addRoot(F.makeNode(StoreOp, C3));
}

/// The x86 grammar text with every `?memop` guard stripped: same
/// operators and rules, but the RMW patterns apply unconditionally — a
/// content change whose output difference is easy to provoke.
std::string unguardedX86Text() {
  std::string Text = x86GrammarText();
  for (std::size_t At = Text.find("?memop"); At != std::string::npos;
       At = Text.find("?memop"))
    Text.erase(At, 6);
  return Text;
}

} // namespace

TEST(RegistryChaos, ReloadHotSwapMidStreamCompletesOnTheOldEpoch) {
  TempDir D;
  {
    std::ofstream OS(D.Path + "/g.odg", std::ios::trunc);
    OS << x86GrammarText();
  }
  registry::GrammarRegistry::Options RO;
  RO.Dir = D.Path;
  registry::GrammarRegistry R(std::move(RO));
  auto Srv = cantFail(TcpServer::start(R, "x86", registryOptions()));

  // Corpus where v1 (?memop guarded) and v2 (unguarded) disagree: a
  // store tree with UNEQUAL addresses still shape-matches the RMW rule,
  // so v2 fuses it where v1 must decompose.
  Grammar V1 = cantFail(parseGrammar(x86GrammarText()));
  DynCostTable Dyn1 = cantFail(DynCostTable::build(V1, standardHooks()));
  Grammar V2 = cantFail(parseGrammar(unguardedX86Text()));
  DynCostTable Dyn2 = cantFail(DynCostTable::build(V2, standardHooks()));
  ASSERT_NE(V1.fingerprint(), V2.fingerprint());
  std::vector<ir::IRFunction> Corpus(2);
  buildRmwTree(Corpus[0], V1, 0, 0, 1); // equal addresses
  buildRmwTree(Corpus[1], V1, 0, 2, 1); // unequal addresses
  std::string Wire = corpusToWire(Corpus, V1);
  std::string RefV1 = referenceAsm(V1, Dyn1, Corpus);
  std::string RefV2 = referenceAsm(V2, Dyn2, Corpus);
  ASSERT_NE(RefV1, RefV2) << "corpus cannot distinguish the two versions";

  // Client A pins v1 (STATS proves, by its arrival, that the server
  // processed the handshake) and then stays connected across the swap.
  Socket A = cantFail(Socket::connectTo("127.0.0.1", Srv->port()));
  ASSERT_TRUE(A.writeAll("GRAMMAR g\nSTATS\n"));
  std::string AHead = readUntil(A, "}\n");
  ASSERT_NE(AHead.find("STATS {"), std::string::npos);
  ASSERT_NE(AHead.find("\"grammar\":\"g\""), std::string::npos) << AHead;

  // The admin rewrites the grammar and pokes the server.
  {
    std::ofstream OS(D.Path + "/g.odg", std::ios::trunc);
    OS << unguardedX86Text();
  }
  Socket B = cantFail(Socket::connectTo("127.0.0.1", Srv->port()));
  ASSERT_TRUE(B.writeAll("RELOAD g\n"));
  B.shutdownWrite();
  std::string BGot = readToEof(B);
  EXPECT_NE(BGot.find("OK RELOAD g epoch=2"), std::string::npos) << BGot;
  EXPECT_EQ(R.statsSnapshot().HotSwaps, 1u);

  // A streams on, after the swap — and must finish on the version it
  // started with, byte-identically.
  ASSERT_TRUE(A.writeAll(Wire));
  A.shutdownWrite();
  EXPECT_EQ(readToEof(A), RefV1);

  // A fresh client sees the new epoch.
  EXPECT_EQ(roundTrip(Srv->port(), "GRAMMAR g\n" + Wire), RefV2);
  Srv->stop();
}

TEST(RegistryChaos, ProtocolErrorsAreTypedAndContained) {
  // Binding order and unknown names fail with diagnostics while the
  // connection (and its neighbors) keep working. Without a registry
  // directory, built-in targets still resolve and anything else is an
  // unknown grammar.
  auto T = cantFail(makeTarget("x86"));
  registry::GrammarRegistry R({});
  auto Srv = cantFail(TcpServer::start(R, "x86", registryOptions()));

  std::string NoSuch = roundTrip(Srv->port(), "GRAMMAR nosuch\n");
  EXPECT_NE(NoSuch.find("ERROR grammar: unknown grammar 'nosuch' (no "
                        "registry directory configured)"),
            std::string::npos)
      << NoSuch;

  std::string Unknown = roundTrip(Srv->port(), "GRAMMAR ../escape\n");
  EXPECT_NE(Unknown.find("ERROR grammar:"), std::string::npos) << Unknown;

  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G, 2, 40);
  std::string FnWire = corpusToWire(Corpus, T->G);
  std::string Late =
      roundTrip(Srv->port(), FnWire + "GRAMMAR mips\n");
  EXPECT_NE(Late.find("ERROR protocol: GRAMMAR must precede"),
            std::string::npos)
      << Late;

  // A healthy multi-tenant client right after the abuse.
  auto Mips = cantFail(makeTarget("mips"));
  std::vector<ir::IRFunction> MipsCorpus = makeCorpus(Mips->G, 4, 60);
  std::string Ref = referenceAsm(Mips->G, Mips->Dyn, MipsCorpus);
  EXPECT_EQ(roundTrip(Srv->port(),
                      "GRAMMAR mips\n" + corpusToWire(MipsCorpus, Mips->G)),
            Ref);
  Srv->stop();
}

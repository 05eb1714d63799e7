//===- tests/serve/ServerChaosTest.cpp ---------------------------------------===//
//
// Part of the odburg project.
//
// Chaos suite for the socket server: every ugly thing a network peer can
// do, asserted not to corrupt the clean connections next to it. Contracts
// under test: a client that disconnects mid-stream has its undelivered
// results cancelled while concurrent clients stream on undisturbed;
// stop() under full backpressure (slow consumers, saturated queues)
// releases every blocked thread and joins them all — no deadlock, no
// leak; a slow consumer never pushes the service's undelivered count past
// its bound (memory stays bounded, the channel just backpressures); a
// malformed function mid-stream produces a diagnostic record and the
// connection keeps serving; a partial frame followed by an abrupt close
// neither crashes nor wedges the server. The TSan CI job runs this whole
// binary — every scenario must also be race-clean.
//
//===----------------------------------------------------------------------===//

#include "serve/TcpServer.h"

#include "ir/Node.h"
#include "pipeline/CompileService.h"
#include "registry/GrammarRegistry.h"
#include "targets/Target.h"
#include "workload/Synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

using namespace odburg;
using namespace odburg::serve;
using namespace odburg::targets;
using namespace odburg::workload;

namespace {

std::vector<ir::IRFunction> makeCorpus(const Grammar &G, unsigned Count,
                                       unsigned Nodes = 120) {
  const Profile *P = findProfile("gzip-like");
  EXPECT_NE(P, nullptr);
  return cantFail(generateBatch(*P, G, Count, Nodes));
}

std::string functionToWire(const ir::IRFunction &F, const Grammar &G) {
  std::string Out;
  for (const ir::Node *Root : F.roots()) {
    Out += ir::toSExpr(Root, G);
    Out += '\n';
  }
  Out += '\n';
  return Out;
}

std::string corpusToWire(const std::vector<ir::IRFunction> &Corpus,
                         const Grammar &G) {
  std::string Out;
  for (const ir::IRFunction &F : Corpus)
    Out += functionToWire(F, G);
  return Out;
}

std::string referenceAsm(const Grammar &G, std::vector<ir::IRFunction> &Corpus,
                         const DynCostTable *Dyn = nullptr) {
  std::unique_ptr<LabelerBackend> B =
      cantFail(LabelerBackend::create(BackendKind::OnDemand, G, Dyn));
  pipeline::WorkerState WS;
  std::string Out;
  for (ir::IRFunction &F : Corpus) {
    pipeline::CompileResult R;
    pipeline::compileFunctionWith(G, Dyn, *B, F, WS, R);
    Out += R.Asm;
  }
  return Out;
}

/// Reads from \p S until orderly EOF (or error, which also ends it).
std::string readToEof(Socket &S) {
  std::string Out;
  char Buf[4096];
  for (long N = S.readSome(Buf, sizeof(Buf)); N > 0;
       N = S.readSome(Buf, sizeof(Buf)))
    Out.append(Buf, static_cast<std::size_t>(N));
  return Out;
}

/// Reads from \p S until \p N bytes arrived (or EOF or error).
std::string readBytes(Socket &S, std::size_t N) {
  std::string Out;
  char Buf[4096];
  while (Out.size() < N) {
    long Got = S.readSome(Buf, std::min(sizeof(Buf), N - Out.size()));
    if (Got <= 0)
      break;
    Out.append(Buf, static_cast<std::size_t>(Got));
  }
  return Out;
}

/// A full healthy round trip: send, half-close, read everything.
std::string roundTrip(std::uint16_t Port, const std::string &Wire) {
  Socket S = cantFail(Socket::connectTo("127.0.0.1", Port));
  EXPECT_TRUE(S.writeAll(Wire));
  S.shutdownWrite();
  return readToEof(S);
}

/// The registry odburg-serve --fixed builds: x86's stripped fixed-cost
/// grammar registered alone under "x86", so every backend serves it and
/// references computed locally against T.Fixed match any lane the
/// scenarios pick. Start the server with "x86" as its default grammar.
std::unique_ptr<registry::GrammarRegistry>
fixedRegistry(std::uint64_t MemBudgetBytes = 0) {
  registry::GrammarRegistry::Options RO;
  RO.MemBudgetBytes = MemBudgetBytes;
  auto R = std::make_unique<registry::GrammarRegistry>(std::move(RO));
  auto T = cantFail(makeTarget("x86"));
  cantFail(R->registerGrammar("x86", std::move(T->Fixed), DynCostTable()));
  return R;
}

/// Server options tuned so chaos bites fast: tiny queues mean every
/// scenario actually exercises the backpressure chain.
TcpServer::Options chaosOptions() {
  TcpServer::Options O;
  O.Workers = 2;
  O.QueueCapacity = 4;
  O.MaxPendingWrites = 4;
  // Idle lanes outlive every scenario, so laneService() stays valid
  // between round trips; no scenario waits on the reaper unless it
  // lowers this itself.
  O.RegistryLaneIdleMillis = 600000;
  return O;
}

} // namespace

TEST(ServerChaos, DisconnectMidStreamCancelsOnlyThatClient) {
  auto T = cantFail(makeTarget("x86"));
  auto R = fixedRegistry();
  auto Srv = cantFail(TcpServer::start(*R, "x86", chaosOptions()));

  std::vector<ir::IRFunction> Healthy = makeCorpus(T->Fixed, 12);
  std::string HealthyWire = corpusToWire(Healthy, T->Fixed);
  std::string HealthyRef = referenceAsm(T->Fixed, Healthy);

  std::vector<ir::IRFunction> VictimCorpus = makeCorpus(T->Fixed, 40, 80);
  std::string VictimWire = corpusToWire(VictimCorpus, T->Fixed);

  // The victims submit plenty, read nothing, and vanish abruptly —
  // mid-stream, with results queued, parked, and in flight. Concurrent
  // healthy clients must still get byte-exact ordered responses.
  std::vector<std::thread> Victims;
  for (int I = 0; I < 4; ++I)
    Victims.emplace_back([&] {
      Expected<Socket> V = Socket::connectTo("127.0.0.1", Srv->port());
      if (!V)
        return;
      // The write itself may fail partway: with nothing being read, the
      // backpressure chain eventually stalls the server's reader and the
      // socket buffers fill. Either way, close abruptly.
      V->writeAll(VictimWire);
      V->close();
    });
  std::vector<std::thread> Healthies;
  std::vector<std::string> Got(3);
  for (int I = 0; I < 3; ++I)
    Healthies.emplace_back(
        [&, I] { Got[I] = roundTrip(Srv->port(), HealthyWire); });

  for (std::thread &Th : Victims)
    Th.join();
  for (std::thread &Th : Healthies)
    Th.join();
  for (const std::string &G : Got)
    EXPECT_EQ(G, HealthyRef);

  Srv->stop();
  // Every accepted submission resolved — delivered to a live client or
  // dropped against a dead one; nothing leaked, nothing wedged.
  const pipeline::CompileService *Lane =
      Srv->laneService(BackendKind::OnDemand);
  ASSERT_NE(Lane, nullptr);
  pipeline::ServiceStats S = Lane->statsSnapshot();
  EXPECT_EQ(S.Submitted, S.Delivered);
  EXPECT_EQ(S.QueueDepth, 0u);
  // The victims' undelivered results were cancelled, promptly and
  // countedly — the "peer vanished mid-write" ledger the STATS line
  // surfaces as cancelledDeliveries.
  EXPECT_GT(Srv->cancelledDeliveries(), 0u);
}

TEST(ServerChaos, StopUnderFullBackpressureReleasesEverything) {
  auto T = cantFail(makeTarget("x86"));
  auto R = fixedRegistry();
  auto Srv = cantFail(TcpServer::start(*R, "x86", chaosOptions()));

  std::vector<ir::IRFunction> Corpus = makeCorpus(T->Fixed, 60, 80);
  std::string Wire = corpusToWire(Corpus, T->Fixed);

  // Saturate: several connections submit far more than QueueCapacity +
  // MaxPendingWrites and read nothing, so writers block in send, the
  // delivery sink blocks on full Out queues, and readers block in
  // submit(). Then stop() — it must release the whole chain and join.
  std::vector<Socket> Clients;
  for (int I = 0; I < 4; ++I) {
    Expected<Socket> C = Socket::connectTo("127.0.0.1", Srv->port());
    ASSERT_TRUE(static_cast<bool>(C));
    Clients.push_back(std::move(*C));
  }
  std::vector<std::thread> Writers;
  for (Socket &C : Clients)
    Writers.emplace_back([&C, &Wire] {
      // Blocks once the server stops consuming; stop() severing the
      // connection fails it out — that is the release being tested.
      C.writeAll(Wire);
    });

  // Let the pipeline actually fill (undelivered results parked against
  // unread sockets), then pull the plug while everything is blocked.
  const pipeline::CompileService *Lane = nullptr;
  for (int Spin = 0; Spin < 200; ++Spin) {
    Lane = Srv->laneService(BackendKind::OnDemand);
    if (Lane && Lane->statsSnapshot().QueueDepth >= 4)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Srv->stop(); // Deadlock here = test timeout = failure.

  for (std::thread &Th : Writers)
    Th.join();
  ASSERT_NE(Lane, nullptr);
  pipeline::ServiceStats S = Lane->statsSnapshot();
  EXPECT_EQ(S.Submitted, S.Delivered);
  EXPECT_EQ(Srv->connectionsActive(), 0u);
}

TEST(ServerChaos, SlowConsumerIsBoundedNotDropped) {
  auto T = cantFail(makeTarget("x86"));
  TcpServer::Options O = chaosOptions();
  auto R = fixedRegistry();
  auto Srv = cantFail(TcpServer::start(*R, "x86", O));

  std::vector<ir::IRFunction> Corpus = makeCorpus(T->Fixed, 40, 80);
  std::string Wire = corpusToWire(Corpus, T->Fixed);
  std::string Ref = referenceAsm(T->Fixed, Corpus);

  Socket S = cantFail(Socket::connectTo("127.0.0.1", Srv->port()));
  ASSERT_TRUE(S.writeAll(Wire));
  S.shutdownWrite();

  // Drain the response a trickle at a time. The service must never hold
  // more than QueueCapacity undelivered submissions — the slow consumer
  // translates into backpressure, not into unbounded buffering — and the
  // full byte-exact response must still arrive.
  std::string Got;
  char Buf[256];
  std::size_t MaxDepth = 0;
  for (long N = S.readSome(Buf, sizeof(Buf)); N > 0;
       N = S.readSome(Buf, sizeof(Buf))) {
    Got.append(Buf, static_cast<std::size_t>(N));
    if (const pipeline::CompileService *Lane =
            Srv->laneService(BackendKind::OnDemand))
      MaxDepth = std::max(MaxDepth, Lane->statsSnapshot().QueueDepth);
    if (Got.size() % 4096 < sizeof(Buf)) // Occasional stall.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(Got, Ref);
  EXPECT_LE(MaxDepth, O.QueueCapacity);
  Srv->stop();
}

TEST(ServerChaos, MalformedFunctionMidStreamYieldsDiagnosticAndServingContinues) {
  auto T = cantFail(makeTarget("x86"));
  auto R = fixedRegistry();
  auto Srv = cantFail(TcpServer::start(*R, "x86", chaosOptions()));

  std::vector<ir::IRFunction> Corpus = makeCorpus(T->Fixed, 2);
  std::string Ref = referenceAsm(T->Fixed, Corpus);

  // Good function, then a frame with an unknown operator, then another
  // good function. The bad frame is skipped with one diagnostic record;
  // both good functions compile in order.
  std::string Wire = functionToWire(Corpus[0], T->Fixed) +
                     "(Bogus (Const 1))\n\n" +
                     functionToWire(Corpus[1], T->Fixed);
  std::string Got = roundTrip(Srv->port(), Wire);

  // The parse diagnostic is pushed out-of-band the moment the reader hits
  // it, so its position relative to the ordered assembly stream is not
  // fixed — extract it, then the rest must be exactly the reference.
  std::size_t ErrAt = Got.find("ERROR parse: ");
  ASSERT_NE(ErrAt, std::string::npos) << Got;
  std::size_t ErrEnd = Got.find('\n', ErrAt);
  ASSERT_NE(ErrEnd, std::string::npos);
  std::string ErrLine = Got.substr(ErrAt, ErrEnd - ErrAt);
  EXPECT_NE(ErrLine.find("Bogus"), std::string::npos) << ErrLine;
  Got.erase(ErrAt, ErrEnd - ErrAt + 1);
  EXPECT_EQ(Got, Ref);
  EXPECT_EQ(Got.find("ERROR"), std::string::npos);
  Srv->stop();
}

TEST(ServerChaos, PartialFrameThenAbruptCloseLeavesServerServing) {
  auto T = cantFail(makeTarget("x86"));
  auto R = fixedRegistry();
  auto Srv = cantFail(TcpServer::start(*R, "x86", chaosOptions()));

  std::vector<ir::IRFunction> Corpus = makeCorpus(T->Fixed, 6);
  std::string Wire = corpusToWire(Corpus, T->Fixed);
  std::string Ref = referenceAsm(T->Fixed, Corpus);

  // Half an s-expression, no frame terminator, then a hard close — the
  // classic torn write. And a variant that dies inside a multi-function
  // stream after submitting real work.
  {
    Socket S = cantFail(Socket::connectTo("127.0.0.1", Srv->port()));
    EXPECT_TRUE(S.writeAll(std::string_view("(Store (AddrL 8) (Ad")));
    S.close();
  }
  {
    Socket S = cantFail(Socket::connectTo("127.0.0.1", Srv->port()));
    std::string Torn = Wire.substr(0, Wire.size() / 2);
    S.writeAll(Torn);
    S.close();
  }

  // The server shrugs: a fresh connection gets a full, exact response.
  EXPECT_EQ(roundTrip(Srv->port(), Wire), Ref);
  Srv->stop();
  const pipeline::CompileService *Lane =
      Srv->laneService(BackendKind::OnDemand);
  ASSERT_NE(Lane, nullptr);
  pipeline::ServiceStats S = Lane->statsSnapshot();
  EXPECT_EQ(S.Submitted, S.Delivered);
}

TEST(ServerChaos, ProtocolMisuseGetsDiagnosticsNotDisconnects) {
  auto T = cantFail(makeTarget("x86"));
  auto R = fixedRegistry();
  auto Srv = cantFail(TcpServer::start(*R, "x86", chaosOptions()));

  std::vector<ir::IRFunction> Corpus = makeCorpus(T->Fixed, 1);
  std::string FnWire = corpusToWire(Corpus, T->Fixed);
  std::string Ref = referenceAsm(T->Fixed, Corpus);

  // Unknown request, bad backend name, and a BACKEND line after the first
  // function: each earns one diagnostic record; the function still
  // compiles and the connection still ends cleanly.
  std::string Wire = std::string("FROBNICATE\n") + "BACKEND warp9\n" +
                     FnWire + "BACKEND dp\n";
  std::string Got = roundTrip(Srv->port(), Wire);

  EXPECT_NE(Got.find("ERROR protocol: unknown request 'FROBNICATE'"),
            std::string::npos)
      << Got;
  EXPECT_NE(Got.find("ERROR protocol: unknown labeler backend 'warp9'"),
            std::string::npos)
      << Got;
  EXPECT_NE(Got.find("ERROR protocol: BACKEND must precede"),
            std::string::npos)
      << Got;
  // Strip the three diagnostic lines; the assembly is byte-exact.
  std::string Asm;
  std::size_t Pos = 0;
  while (Pos < Got.size()) {
    std::size_t End = Got.find('\n', Pos);
    if (End == std::string::npos)
      End = Got.size() - 1;
    std::string_view Line(Got.data() + Pos, End - Pos);
    if (Line.substr(0, 6) != "ERROR ")
      Asm.append(Line).push_back('\n');
    Pos = End + 1;
  }
  EXPECT_EQ(Asm, Ref);
  Srv->stop();
}

TEST(ServerChaos, AdmissionStormIsShedDeterministicallyAtTheCap) {
  auto T = cantFail(makeTarget("x86"));
  TcpServer::Options O = chaosOptions();
  O.MaxConns = 4;
  auto R = fixedRegistry();
  auto Srv = cantFail(TcpServer::start(*R, "x86", O));

  std::vector<ir::IRFunction> Corpus = makeCorpus(T->Fixed, 4);
  std::string Wire = corpusToWire(Corpus, T->Fixed);
  std::string Ref = referenceAsm(T->Fixed, Corpus);

  // Four squatters occupy every admission slot and hold them open.
  std::vector<Socket> Squatters;
  for (unsigned I = 0; I < 4; ++I)
    Squatters.push_back(cantFail(Socket::connectTo("127.0.0.1", Srv->port())));
  while (Srv->connectionsAccepted() < 4)
    std::this_thread::yield();

  // A 4x connection storm against the full server: every storm client is
  // turned away with the admission record and a close — deterministic,
  // because the squatters never leave and never finish.
  for (unsigned I = 0; I < 12; ++I) {
    Socket S = cantFail(Socket::connectTo("127.0.0.1", Srv->port()));
    std::string Got = readToEof(S);
    EXPECT_NE(Got.find("ERROR ResourceExhausted: server at connection cap (4)"),
              std::string::npos)
        << Got;
    EXPECT_NE(Got.find("retry-after-ms="), std::string::npos) << Got;
  }
  EXPECT_EQ(Srv->shedConnections(), 12u);

  // The squatters leave; their slots free up (the accept loop reaps dead
  // connections before judging admission) and a fresh client round-trips
  // a byte-exact response. The reader threads notice the closes
  // asynchronously, so admission may still answer busy for a moment.
  for (Socket &S : Squatters)
    S.close();
  std::string Got;
  for (int Try = 0; Try < 200; ++Try) {
    Got = roundTrip(Srv->port(), Wire);
    if (Got == Ref)
      break;
    ASSERT_NE(Got.find("ERROR ResourceExhausted"), std::string::npos) << Got;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(Got, Ref);
  Srv->stop();
}

TEST(ServerChaos, IdleConnectionIsReapedWithClientVisibleDiagnostic) {
  auto T = cantFail(makeTarget("x86"));
  TcpServer::Options O = chaosOptions();
  O.IdleTimeoutMillis = 250;
  auto R = fixedRegistry();
  auto Srv = cantFail(TcpServer::start(*R, "x86", O));

  std::vector<ir::IRFunction> Corpus = makeCorpus(T->Fixed, 3);
  std::string Wire = corpusToWire(Corpus, T->Fixed);
  std::string Ref = referenceAsm(T->Fixed, Corpus);

  // A connection that opens and then goes silent: the server must reap
  // it — with a diagnostic the client actually sees before the close,
  // not a bare RST.
  {
    Socket S = cantFail(Socket::connectTo("127.0.0.1", Srv->port()));
    std::string Got = readToEof(S); // Blocks until the reaper acts.
    EXPECT_NE(Got.find("ERROR IdleTimeout: no input for 250 ms"),
              std::string::npos)
        << Got;
  }
  EXPECT_EQ(Srv->idleReaped(), 1u);

  // A half-way variant: real work, then silence. The delivered assembly
  // precedes the reaper's diagnostic.
  {
    Socket S = cantFail(Socket::connectTo("127.0.0.1", Srv->port()));
    ASSERT_TRUE(S.writeAll(Wire)); // No half-close: the connection idles.
    std::string Got = readToEof(S);
    std::size_t ErrAt = Got.find("ERROR IdleTimeout");
    ASSERT_NE(ErrAt, std::string::npos) << Got;
    EXPECT_EQ(Got.substr(0, ErrAt), Ref);
  }
  EXPECT_EQ(Srv->idleReaped(), 2u);

  // An active client is never reaped: a plain round trip (half-close, so
  // EOF beats the timeout) stays byte-exact.
  EXPECT_EQ(roundTrip(Srv->port(), Wire), Ref);
  EXPECT_EQ(Srv->idleReaped(), 2u);
  Srv->stop();
}

TEST(ServerChaos, GracefulDrainFinishesInFlightWorkThenStops) {
  auto T = cantFail(makeTarget("x86"));
  auto R = fixedRegistry();
  auto Srv = cantFail(TcpServer::start(*R, "x86", chaosOptions()));

  std::vector<ir::IRFunction> Corpus = makeCorpus(T->Fixed, 16);
  std::string Wire = corpusToWire(Corpus, T->Fixed);
  std::string Ref = referenceAsm(T->Fixed, Corpus);

  // A client with work in flight when the drain begins must still get its
  // complete byte-exact response; a connect attempt after beginDrain()
  // must be refused (the listener is gone).
  Socket S = cantFail(Socket::connectTo("127.0.0.1", Srv->port()));
  ASSERT_TRUE(S.writeAll(Wire));
  S.shutdownWrite();
  std::uint16_t Port = Srv->port();
  // connectTo() only proves the kernel finished the handshake; wait until
  // the server actually accepted, or the drain races our own connection
  // into the void.
  while (Srv->connectionsAccepted() < 1)
    std::this_thread::yield();

  ASSERT_TRUE(Srv->beginDrain());
  EXPECT_FALSE(Srv->beginDrain()); // Second drain reports already begun.
  Expected<Socket> Late = Socket::connectTo("127.0.0.1", Port);
  if (Late) {
    // A connect may still complete against the dying listen queue, but it
    // gets no service: EOF with no bytes.
    char C;
    EXPECT_LE(Late->readSome(&C, 1), 0l);
  }

  EXPECT_EQ(readToEof(S), Ref); // In-flight work finished under drain.
  S.close();
  for (int Spin = 0; Spin < 2000 && !Srv->drained(); ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(Srv->drained());
  Srv->stop();
}

TEST(ServerChaos, BackendHandshakeSelectsLaneAndStatsReportIt) {
  auto T = cantFail(makeTarget("x86"));
  auto R = fixedRegistry();
  auto Srv = cantFail(TcpServer::start(*R, "x86", chaosOptions()));

  std::vector<ir::IRFunction> Corpus = makeCorpus(T->Fixed, 4);
  std::string FnWire = corpusToWire(Corpus, T->Fixed);
  std::string Ref = referenceAsm(T->Fixed, Corpus);

  for (const char *Name : {"dp", "offline", "ondemand"}) {
    std::string Got = roundTrip(
        Srv->port(), std::string("BACKEND ") + Name + "\n" + FnWire + "STATS\n");
    // The STATS line names the connection's lane; everything else is the
    // byte-exact assembly (STATS is requested after the last function, and
    // the single-threaded round trip already drained the deliveries... or
    // not — it is out-of-band, so only extract and check it).
    std::size_t At = Got.find("STATS {");
    ASSERT_NE(At, std::string::npos) << Got;
    std::size_t End = Got.find('\n', At);
    std::string Line = Got.substr(At, End - At);
    EXPECT_NE(Line.find(std::string("\"backend\":\"") + Name + "\""),
              std::string::npos)
        << Line;
    // The hit rates are present for every lane. The L1 and dense-row
    // rates name retired tiers and read 0 everywhere; no tier
    // configuration field is reported any more.
    for (const char *Field :
         {"\"l1HitRate\":0.0000", "\"denseHitRate\":0.0000",
          "\"cacheHitRate\":"})
      EXPECT_NE(Line.find(Field), std::string::npos) << Field << " " << Line;
    for (const char *Field :
         {"\"adaptive\":", "\"tierL1On\":", "\"tierL1Ways\":",
          "\"tierDenseOn\":", "\"tierPromoteThreshold\":",
          "\"tierWindows\":", "\"tierReconfigs\":"})
      EXPECT_EQ(Line.find(Field), std::string::npos) << Field << " " << Line;
    Got.erase(At, End - At + 1);
    EXPECT_EQ(Got, Ref);
  }
  // All three lanes exist now and did work.
  for (BackendKind K :
       {BackendKind::DP, BackendKind::Offline, BackendKind::OnDemand}) {
    const pipeline::CompileService *Lane = Srv->laneService(K);
    ASSERT_NE(Lane, nullptr);
    EXPECT_EQ(Lane->statsSnapshot().Submitted, Corpus.size());
  }
  Srv->stop();
}

TEST(ServerChaos, DefaultConnectionAndGrammarHandshakeShareOneLane) {
  auto T = cantFail(makeTarget("x86"));
  auto R = fixedRegistry();
  auto Srv = cantFail(TcpServer::start(*R, "x86", chaosOptions()));

  std::vector<ir::IRFunction> Corpus = makeCorpus(T->Fixed, 6);
  std::string Wire = corpusToWire(Corpus, T->Fixed);
  std::string Ref = referenceAsm(T->Fixed, Corpus);

  // A connection with no handshake and one naming the default grammar
  // reach the same registry entry, hence the same lane and bytes.
  std::string Plain = roundTrip(Srv->port(), Wire);
  std::string Named = roundTrip(Srv->port(), "GRAMMAR x86\n" + Wire);
  EXPECT_EQ(Plain, Ref);
  EXPECT_EQ(Named, Plain);
  EXPECT_EQ(Srv->registryLanes(), 1u);
  const pipeline::CompileService *Lane =
      Srv->laneService(BackendKind::OnDemand);
  ASSERT_NE(Lane, nullptr);
  EXPECT_EQ(Lane->statsSnapshot().Submitted, 2 * Corpus.size());
  Srv->stop();
}

TEST(ServerChaos, StatsNeverBindsTheConnection) {
  auto T = cantFail(makeTarget("x86"));
  auto R = fixedRegistry();
  auto Srv = cantFail(TcpServer::start(*R, "x86", chaosOptions()));

  // Splits a reply into its STATS line and the rest.
  auto SplitStats = [](std::string Got, std::string &Stats) {
    std::size_t At = Got.find("STATS {");
    EXPECT_NE(At, std::string::npos) << Got;
    if (At == std::string::npos)
      return Got;
    std::size_t End = Got.find('\n', At);
    Stats = Got.substr(At, End - At);
    return Got.erase(At, End - At + 1);
  };

  // STATS on an unbound default connection reports the default lane,
  // and BACKEND may still follow it.
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->Fixed, 3);
  std::string Stats;
  std::string Asm = SplitStats(
      roundTrip(Srv->port(),
                "STATS\nBACKEND dp\n" + corpusToWire(Corpus, T->Fixed)),
      Stats);
  EXPECT_NE(Stats.find("\"backend\":\"ondemand\""), std::string::npos)
      << Stats;
  EXPECT_NE(Stats.find("\"grammar\":\"x86\""), std::string::npos) << Stats;
  EXPECT_EQ(Asm, referenceAsm(T->Fixed, Corpus));
  const pipeline::CompileService *Dp = Srv->laneService(BackendKind::DP);
  ASSERT_NE(Dp, nullptr);
  EXPECT_EQ(Dp->statsSnapshot().Submitted, Corpus.size());

  // The same sequence after a GRAMMAR handshake.
  auto Mips = cantFail(makeTarget("mips"));
  std::vector<ir::IRFunction> MipsCorpus = makeCorpus(Mips->G, 3);
  Asm = SplitStats(roundTrip(Srv->port(),
                             "GRAMMAR mips\nSTATS\nBACKEND dp\n" +
                                 corpusToWire(MipsCorpus, Mips->G)),
                   Stats);
  EXPECT_NE(Stats.find("\"grammar\":\"mips\""), std::string::npos) << Stats;
  EXPECT_EQ(Asm, referenceAsm(Mips->G, MipsCorpus, &Mips->Dyn));
  Srv->stop();
}

TEST(ServerChaos, ReapedDefaultLaneLeavesItsBackendWarm) {
  auto T = cantFail(makeTarget("x86"));
  // A one-byte budget reaps idle lanes at once and evicts every unpinned
  // entry: only the server's pin keeps the default backend resident.
  auto R = fixedRegistry(/*MemBudgetBytes=*/1);
  auto Srv = cantFail(TcpServer::start(*R, "x86", chaosOptions()));

  std::vector<ir::IRFunction> Corpus = makeCorpus(T->Fixed, 6);
  std::string Wire = corpusToWire(Corpus, T->Fixed);
  std::string Ref = referenceAsm(T->Fixed, Corpus);

  // Reads a connection's lane while the connection still holds it, so
  // the reaper cannot free the lane under the read.
  auto StatesComputed = [&] {
    Socket S = cantFail(Socket::connectTo("127.0.0.1", Srv->port()));
    EXPECT_TRUE(S.writeAll(Wire));
    EXPECT_EQ(readBytes(S, Ref.size()), Ref);
    const pipeline::CompileService *Lane =
        Srv->laneService(BackendKind::OnDemand);
    EXPECT_NE(Lane, nullptr);
    pipeline::ServiceStats St;
    if (Lane)
      St = Lane->statsSnapshot();
    EXPECT_EQ(St.Submitted, Corpus.size());
    S.shutdownWrite();
    EXPECT_EQ(readToEof(S), "");
    return St.Label.StatesComputed;
  };

  EXPECT_GT(StatesComputed(), 0u);
  for (int Spin = 0; Spin < 5000 && Srv->registryLanes() != 0; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(Srv->registryLanes(), 0u);
  // A fresh lane on the same pinned backend: all transitions are warm.
  EXPECT_EQ(StatesComputed(), 0u);
  Srv->stop();
}

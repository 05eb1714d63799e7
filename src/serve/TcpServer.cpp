//===- serve/TcpServer.cpp - Socket front for the compile service ---------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "serve/TcpServer.h"

#include "support/FaultInjection.h"
#include "support/StringUtil.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <istream>

using namespace odburg;
using namespace odburg::serve;

/// One client connection: a reader thread (parse + submit), a writer
/// thread (drain the bounded Out queue to the socket), and the accounting
/// that ties the connection's lifetime to its deliveries.
///
/// Invariant the Live deque depends on: this connection submits to exactly
/// one lane, and the lane delivers in global submission order — so this
/// connection's deliveries arrive in this connection's submission order,
/// and the function owning each in-flight tree is always Live.front() at
/// its delivery. Functions must outlive their compilation (the service
/// compiles in place), which is exactly Live's job; pop happens at
/// delivery, after the compile finished.
struct TcpServer::Conn {
  std::uint64_t Id = 0;
  Socket Sock;

  std::mutex M;
  std::condition_variable CanPush; ///< Out below its bound, or Dead.
  std::condition_variable CanPop;  ///< Out non-empty, OutputDone, or Dead.
  std::condition_variable DrainedCv; ///< Delivered caught up to Submitted.
  /// Rendered responses awaiting the writer, bounded by MaxPendingWrites.
  std::deque<std::string> Out;
  /// One in-flight function plus its wire sequence number — the index of
  /// its frame among this connection's function frames, which diagnostic
  /// records quote (`seq=K`) so a client can map out-of-band sheds and
  /// ordered-slot deadline records back to the frame it sent.
  struct LiveFn {
    std::unique_ptr<ir::IRFunction> F;
    std::uint64_t Frame = 0;
  };
  /// Functions submitted and not yet delivered, in submission order.
  std::deque<LiveFn> Live;
  /// Function frames read so far (shed or submitted) — the seq counter.
  /// Reader-thread-only.
  std::uint64_t Frames = 0;
  std::uint64_t Submitted = 0;
  std::uint64_t Delivered = 0;
  /// Abrupt end (client disconnect, transport error, server stop): output
  /// is abandoned, blocked pushers/writers release immediately.
  bool Dead = false;
  /// Reader is done and drained; the writer exits once Out empties.
  bool OutputDone = false;

  std::thread ReaderT; ///< Joined by the reaper (or stop()).
  std::thread WriterT; ///< Joined by the reader's epilogue.
  /// Set as the reader's last act; tells the reaper this Conn is joinable.
  std::atomic<bool> Finished{false};
};

TcpServer::TcpServer(const targets::Target &T, Options Opts)
    : T(T), Opts(std::move(Opts)) {}

TcpServer::~TcpServer() { stop(); }

Expected<std::unique_ptr<TcpServer>> TcpServer::start(const targets::Target &T,
                                                      Options Opts) {
  Expected<Socket> L = Socket::listenOn(Opts.Host, Opts.Port);
  if (!L)
    return L.takeError();
  Expected<std::uint16_t> P = L->boundPort();
  if (!P)
    return P.takeError();
  std::unique_ptr<TcpServer> S(new TcpServer(T, std::move(Opts)));
  S->Listener = std::move(*L);
  S->BoundPort = *P;
  TcpServer *Srv = S.get();
  S->AcceptThread = std::thread([Srv] { Srv->acceptLoop(); });
  // The governor also owns registry-lane reaping and eviction, so it
  // runs whenever a registry is attached, budget or not.
  if (S->Opts.MemBudgetBytes || S->Opts.Registry)
    S->GovThread = std::thread([Srv] { Srv->governorLoop(); });
  return S;
}

const Grammar &TcpServer::laneGrammar(BackendKind K) const {
  // The offline lane always serves the stripped fixed-cost grammar (fixed
  // tables cannot encode dynamic costs); ForceFixed levels the others
  // onto it so all lanes produce byte-identical assembly. The hybrid
  // lane serves the full grammar: its dyn-cost remainder runs on the
  // automaton, so nothing needs stripping.
  if (Opts.ForceFixed || K == BackendKind::Offline)
    return T.Fixed;
  return T.G;
}

const DynCostTable *TcpServer::laneDyn(BackendKind K) const {
  if (Opts.ForceFixed || K == BackendKind::Offline)
    return nullptr;
  return &T.Dyn;
}

pipeline::CompileService::Options TcpServer::laneServiceOpts(BackendKind K) {
  pipeline::CompileService::Options SO;
  SO.Backend = K;
  SO.BackendOpts = Opts.BackendOpts;
  SO.Workers = Opts.Workers;
  SO.QueueCapacity = Opts.QueueCapacity;
  SO.DeadlineNs = Opts.CompileDeadlineMs * 1000000ull;
  SO.OnResultTagged = [this](std::size_t, std::uint64_t Tag,
                             const pipeline::CompileResult &R) {
    dispatch(Tag, R);
  };
  return SO;
}

Expected<pipeline::CompileService *> TcpServer::lane(BackendKind K) {
  std::lock_guard<std::mutex> L(LanesM);
  std::unique_ptr<pipeline::CompileService> &Slot =
      Lanes[static_cast<std::size_t>(K)];
  if (Slot)
    return Slot.get();
  Expected<std::unique_ptr<pipeline::CompileService>> S =
      pipeline::CompileService::create(laneGrammar(K), laneDyn(K),
                                       laneServiceOpts(K));
  if (!S)
    return S.takeError();
  Slot = std::move(*S);
  return Slot.get();
}

Expected<TcpServer::RegLane *> TcpServer::regLane(const registry::Lease &L,
                                                  BackendKind K) {
  registry::GrammarEntry *E = L.entry();
  // Materialize the shared backend before taking LanesM: creation can
  // mean table generation or a snapshot load, and the caller's lease
  // already keeps it alive.
  Expected<LabelerBackend *> B = E->backend(K);
  if (!B)
    return B.takeError();
  std::lock_guard<std::mutex> Lk(LanesM);
  std::unique_ptr<RegLane> &Slot =
      RegLanes[std::make_pair(static_cast<const registry::GrammarEntry *>(E),
                              static_cast<unsigned>(K))];
  if (!Slot) {
    auto RL = std::make_unique<RegLane>();
    RL->Pin = L.clone();
    RL->Svc = std::make_unique<pipeline::CompileService>(
        E->grammar(K), E->dynCosts(K), **B, laneServiceOpts(K));
    Slot = std::move(RL);
  }
  ++Slot->Active;
  return Slot.get();
}

void TcpServer::releaseRegLane(RegLane *L) {
  std::lock_guard<std::mutex> Lk(LanesM);
  if (--L->Active == 0)
    L->IdleSince = std::chrono::steady_clock::now();
}

void TcpServer::reapIdleRegLanes(bool Force) {
  // Collect under the lock, destroy outside it: shutdown() joins worker
  // threads and must not stall lane creation or stats. A lane at
  // Active == 0 has no reader left that could submit (connections
  // release only after their drain wait), so shutting its service down
  // severs nothing. The RegLane member order drops the service before
  // the entry pin.
  std::vector<std::unique_ptr<RegLane>> Dead;
  auto Now = std::chrono::steady_clock::now();
  auto Grace = std::chrono::milliseconds(Opts.RegistryLaneIdleMillis);
  {
    std::lock_guard<std::mutex> Lk(LanesM);
    for (auto It = RegLanes.begin(); It != RegLanes.end();) {
      if (It->second->Active == 0 &&
          (Force || Now - It->second->IdleSince >= Grace)) {
        Dead.push_back(std::move(It->second));
        It = RegLanes.erase(It);
      } else {
        ++It;
      }
    }
  }
  for (std::unique_ptr<RegLane> &L : Dead)
    L->Svc->shutdown();
}

const pipeline::CompileService *TcpServer::laneService(BackendKind K) const {
  std::lock_guard<std::mutex> L(LanesM);
  return Lanes[static_cast<std::size_t>(K)].get();
}

std::size_t TcpServer::registryLanes() const {
  std::lock_guard<std::mutex> L(LanesM);
  return RegLanes.size();
}

unsigned TcpServer::connectionsActive() const {
  std::lock_guard<std::mutex> L(ConnsM);
  return static_cast<unsigned>(Conns.size());
}

bool TcpServer::pushOut(Conn &C, std::string Bytes) {
  std::unique_lock<std::mutex> L(C.M);
  // The slow-consumer backpressure point: a full Out queue blocks here,
  // which blocks the lane's delivery sink, which fills the service's
  // bounded queue, which blocks the readers feeding it. markDead releases
  // the wait.
  C.CanPush.wait(L, [&] {
    return C.Dead || C.Out.size() < Opts.MaxPendingWrites;
  });
  if (C.Dead)
    return false;
  C.Out.push_back(std::move(Bytes));
  C.CanPop.notify_one();
  return true;
}

void TcpServer::markDead(Conn &C) {
  {
    std::lock_guard<std::mutex> L(C.M);
    if (C.Dead)
      return;
    C.Dead = true;
    // Rendered-but-unwritten responses die with the connection; count
    // them so operators can see vanished-client waste, then free the
    // bytes now rather than at reap time.
    CancelledCount.fetch_add(C.Out.size(), std::memory_order_relaxed);
    C.Out.clear();
  }
  C.CanPush.notify_all();
  C.CanPop.notify_all();
  C.DrainedCv.notify_all();
  // Severs (not closes) the socket: the reader and writer threads may be
  // blocked in recv/send on it right now, and shutdown(2) is the
  // thread-safe way to fail them out.
  C.Sock.shutdownBoth();
}

/// Flattens an error message onto one line for the wire.
static std::string oneLine(std::string Msg) {
  for (char &C : Msg)
    if (C == '\n')
      C = ' ';
  return Msg;
}

void TcpServer::dispatch(std::uint64_t Tag, const pipeline::CompileResult &R) {
  std::shared_ptr<Conn> C;
  {
    std::lock_guard<std::mutex> L(ConnsM);
    auto It = Conns.find(Tag);
    if (It != Conns.end())
      C = It->second;
  }
  if (!C) {
    // Connection reaped before delivery; result dropped.
    CancelledCount.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // This delivery's function is Live.front() (per-connection deliveries
  // arrive in per-connection submission order — see Conn). Freeing it here
  // is safe: the compile is finished, only delivery remains.
  Conn::LiveFn Done;
  {
    std::lock_guard<std::mutex> L(C->M);
    if (!C->Live.empty()) {
      Done = std::move(C->Live.front());
      C->Live.pop_front();
    }
  }

  std::string Bytes;
  if (R.ok()) {
    Bytes = R.Asm;
  } else if (R.Kind == ErrorKind::DeadlineExceeded) {
    // The deadline record fills the function's ordered slot; quote its
    // frame seq so a retrying client can re-send exactly that function.
    Bytes = "ERROR DeadlineExceeded: " + oneLine(R.Diagnostic) +
            "; seq=" + std::to_string(Done.Frame) + "\n";
  } else {
    // One diagnostic record per failed function, in its ordered slot.
    // Responses are line-framed, so the diagnostic must stay one line.
    Bytes = "ERROR compile: " + oneLine(R.Diagnostic) + "\n";
  }

  // Enqueue-or-drop and the Delivered increment are one critical section:
  // once a client can observe the response bytes (they reached Out), any
  // STATS snapshot already counts this delivery. Blocking happens here
  // too (bounded queue) — the slow-consumer backpressure point; a dead
  // connection drops the bytes but the delivery still counts, so
  // drained-waiters see every submission resolve exactly once.
  {
    std::unique_lock<std::mutex> L(C->M);
    C->CanPush.wait(L, [&] {
      return C->Dead || C->Out.size() < Opts.MaxPendingWrites;
    });
    if (!C->Dead) {
      C->Out.push_back(std::move(Bytes));
      C->CanPop.notify_one();
    } else {
      CancelledCount.fetch_add(1, std::memory_order_relaxed);
    }
    ++C->Delivered;
  }
  C->DrainedCv.notify_all();
}

std::string TcpServer::statsJson(BackendKind K, Conn &C,
                                 pipeline::CompileService *Svc,
                                 const std::string &GrammarName) {
  pipeline::ServiceStats S;
  {
    std::lock_guard<std::mutex> L(LanesM);
    if (!Svc)
      Svc = Lanes[static_cast<std::size_t>(K)].get();
    if (Svc)
      S = Svc->statsSnapshot();
  }
  std::uint64_t ConnSub = 0, ConnDel = 0;
  {
    std::lock_guard<std::mutex> L(C.M);
    ConnSub = C.Submitted;
    ConnDel = C.Delivered;
  }
  // l1HitRate and denseHitRate name warm-path tiers that no longer
  // exist; they stay, always 0, for clients that still read them.
  std::string Line = formatf(
      "STATS {\"backend\":\"%s\",\"grammar\":\"%s\","
      "\"submitted\":%zu,\"delivered\":%zu,"
      "\"queueDepth\":%zu,\"workers\":%u,\"latencySamples\":%zu,"
      "\"p50Us\":%.1f,\"p90Us\":%.1f,\"p99Us\":%.1f,"
      "\"l1HitRate\":0.0000,\"denseHitRate\":0.0000,\"cacheHitRate\":%.4f,"
      "\"offlineHitRate\":%.4f,"
      "\"connSubmitted\":%llu,\"connDelivered\":%llu,"
      "\"connectionsActive\":%u,\"connectionsAccepted\":%llu,"
      "\"deadlineExpired\":%zu,\"maxConns\":%u,"
      "\"shedConnections\":%llu,\"shedSubmits\":%llu,"
      "\"idleReaped\":%llu,\"cancelledDeliveries\":%llu,"
      "\"faultsInjected\":%llu,\"degraded\":%s,"
      "\"backendBytes\":%zu,\"memBudget\":%zu,\"draining\":%s",
      backendName(K), GrammarName.c_str(), S.Submitted, S.Delivered,
      S.QueueDepth, S.Workers,
      S.LatencySamples, S.P50Us, S.P90Us, S.P99Us, S.cacheHitRate(),
      S.offlineHitRate(),
      static_cast<unsigned long long>(ConnSub),
      static_cast<unsigned long long>(ConnDel), connectionsActive(),
      static_cast<unsigned long long>(connectionsAccepted()),
      S.DeadlineExpired, Opts.MaxConns,
      static_cast<unsigned long long>(ShedConns.load()),
      static_cast<unsigned long long>(ShedSubmits.load()),
      static_cast<unsigned long long>(IdleReapedCount.load()),
      static_cast<unsigned long long>(CancelledCount.load()),
      static_cast<unsigned long long>(fault::firedTotal()),
      Pressure.load() ? "true" : "false",
      BackendBytes.load(), Opts.MemBudgetBytes,
      Draining.load() ? "true" : "false");
  if (Opts.Registry) {
    registry::RegistryStats R = Opts.Registry->statsSnapshot();
    std::size_t LaneCount;
    {
      std::lock_guard<std::mutex> L(LanesM);
      LaneCount = RegLanes.size();
    }
    Line += formatf(
        ",\"registry\":{\"residentGrammars\":%llu,\"registryLanes\":%zu,"
        "\"acquires\":%llu,\"evictions\":%llu,\"hotSwaps\":%llu,"
        "\"snapshotHits\":%llu,\"snapshotMisses\":%llu,"
        "\"tablesLoads\":%llu,\"registryBytes\":%llu,"
        "\"registryPressure\":%s,\"memBudget\":%llu}",
        static_cast<unsigned long long>(R.ResidentGrammars), LaneCount,
        static_cast<unsigned long long>(R.Acquires),
        static_cast<unsigned long long>(R.Evictions),
        static_cast<unsigned long long>(R.HotSwaps),
        static_cast<unsigned long long>(R.SnapshotHits),
        static_cast<unsigned long long>(R.SnapshotMisses),
        static_cast<unsigned long long>(R.TablesLoads),
        static_cast<unsigned long long>(R.BackendBytes),
        R.MemoryPressure ? "true" : "false",
        static_cast<unsigned long long>(
            Opts.Registry->options().MemBudgetBytes));
  }
  Line += "}\n";
  return Line;
}

void TcpServer::connReader(std::shared_ptr<Conn> C) {
  if (Opts.IdleTimeoutMillis)
    C->Sock.setRecvTimeout(Opts.IdleTimeoutMillis);
  SocketStreamBuf SB(C->Sock);
  std::istream In(&SB);
  BackendKind Kind = Opts.DefaultBackend;
  ir::SExprFunctionStream Stream(In, laneGrammar(Kind));
  Stream.setMaxFunctionBytes(Opts.MaxFrameBytes);
  pipeline::CompileService *Svc = nullptr;

  // Multi-tenant state: a GRAMMAR handshake pins a registry entry for
  // this connection's lifetime and routes it to a shared per-(grammar,
  // backend) registry lane instead of the server target's lanes.
  registry::Lease Lease;
  RegLane *RLane = nullptr;
  std::string GrammarName = T.Name;

  // The grammar this connection parses and labels against right now.
  auto CurGrammar = [&]() -> const Grammar & {
    return Lease ? Lease->grammar(Kind) : laneGrammar(Kind);
  };
  // Binds Svc to the lane for the current (grammar, Kind). On failure
  // pushes the diagnostic and returns false with Svc still null.
  auto Bind = [&]() -> bool {
    if (Lease) {
      Expected<RegLane *> L = regLane(Lease, Kind);
      if (!L) {
        pushOut(*C, "ERROR backend: " + oneLine(L.message()) + "\n");
        return false;
      }
      RLane = *L;
      Svc = RLane->Svc.get();
      return true;
    }
    Expected<pipeline::CompileService *> L = lane(Kind);
    if (!L) {
      pushOut(*C, "ERROR backend: " + oneLine(L.message()) + "\n");
      return false;
    }
    Svc = *L;
    return true;
  };

  for (;;) {
    auto F = std::make_unique<ir::IRFunction>();
    Expected<ir::SExprFunctionStream::Item> I = Stream.nextItem(*F);
    if (SB.timedOut()) {
      // The idle reaper: the client went quiet past the receive-timeout
      // bound. Depending on where the silence fell, nextItem read it as
      // end-of-input or as a truncated frame — either way this is a reap,
      // not a clean half-close; say so and stop reading. Results already
      // in flight still deliver through the normal epilogue below.
      IdleReapedCount.fetch_add(1, std::memory_order_relaxed);
      pushOut(*C, formatf("ERROR IdleTimeout: no input for %u ms; "
                          "closing connection\n",
                          Opts.IdleTimeoutMillis));
      break;
    }
    if (!I) {
      // Parse errors are recoverable per function: the stream consumed
      // the bad frame up to its blank-line boundary, so report the
      // diagnostic record and keep serving. A poisoned stream (byte-cap
      // overrun) or an I/O error broke framing — report and stop.
      pushOut(*C, "ERROR parse: " + oneLine(I.message()) + "\n");
      if (I.kind() == ErrorKind::MalformedInput && !Stream.poisoned())
        continue;
      break;
    }
    if (*I == ir::SExprFunctionStream::Item::End)
      break;

    if (*I == ir::SExprFunctionStream::Item::Control) {
      const std::string &Line = Stream.controlLine();
      if (Line == "STATS") {
        // Warm the lane so STATS reports the real worker pool even before
        // the first function. Out-of-band: the snapshot is pushed now, not
        // in order with pending compile results. A target-lane warm does
        // not bind the connection (BACKEND may still follow); a registry
        // lane does — its refcount keeps the service alive while we read.
        if (Svc) {
          pushOut(*C, statsJson(Kind, *C, Svc, GrammarName));
        } else if (Lease) {
          if (Bind())
            pushOut(*C, statsJson(Kind, *C, Svc, GrammarName));
        } else if (Expected<pipeline::CompileService *> L = lane(Kind)) {
          pushOut(*C, statsJson(Kind, *C, *L, GrammarName));
        } else {
          pushOut(*C, "ERROR backend: " + oneLine(L.message()) + "\n");
        }
        continue;
      }
      if (startsWith(Line, "GRAMMAR ")) {
        // Must come before the lane exists: the stream has to parse
        // against the right grammar from the first function, and the lane
        // key is the grammar. (So: GRAMMAR, then BACKEND, then traffic.)
        if (!Opts.Registry) {
          pushOut(*C, "ERROR protocol: no grammar registry configured\n");
          continue;
        }
        if (Svc) {
          pushOut(*C, "ERROR protocol: GRAMMAR must precede BACKEND and "
                      "the first function\n");
          continue;
        }
        std::string_view Name = trim(std::string_view(Line).substr(8));
        Expected<registry::Lease> L = Opts.Registry->acquire(Name);
        if (!L) {
          pushOut(*C, "ERROR grammar: " + oneLine(L.message()) + "\n");
          continue;
        }
        Lease = std::move(*L);
        GrammarName = Lease->name();
        Stream.rebind(CurGrammar());
        continue;
      }
      if (startsWith(Line, "RELOAD ")) {
        // Admin request, answered out-of-band: re-resolve from source and
        // hot-swap on content change. This connection keeps its own
        // version; only new GRAMMAR handshakes see the new epoch.
        if (!Opts.Registry) {
          pushOut(*C, "ERROR protocol: no grammar registry configured\n");
          continue;
        }
        std::string_view Name = trim(std::string_view(Line).substr(7));
        Expected<registry::Lease> L = Opts.Registry->reload(Name);
        if (!L) {
          pushOut(*C, "ERROR grammar: " + oneLine(L.message()) + "\n");
          continue;
        }
        pushOut(*C, formatf("OK RELOAD %s epoch=%llu\n",
                            (*L)->name().c_str(),
                            static_cast<unsigned long long>((*L)->epoch())));
        continue;
      }
      if (startsWith(Line, "BACKEND ")) {
        if (Svc) {
          pushOut(*C, "ERROR protocol: BACKEND must precede the first "
                      "function\n");
          continue;
        }
        std::string_view Name = trim(std::string_view(Line).substr(8));
        Expected<BackendKind> K = parseBackendKind(Name);
        if (!K) {
          pushOut(*C, "ERROR protocol: " + oneLine(K.message()) + "\n");
          continue;
        }
        // Bind the lane now: grammar switches (offline/ForceFixed serve
        // the stripped grammar) must happen before any function parses,
        // and a lane the server cannot build should fail the handshake,
        // not the first compile.
        Kind = *K;
        if (!Bind())
          break;
        Stream.rebind(CurGrammar());
        continue;
      }
      pushOut(*C, "ERROR protocol: unknown request '" + Line + "'\n");
      continue;
    }

    // A function. Bind the default lane on first use.
    if (!Svc && !Bind())
      break;
    ir::IRFunction &Ref = *F;
    std::uint64_t Seq = C->Frames++;
    {
      std::lock_guard<std::mutex> L(C->M);
      C->Live.push_back(Conn::LiveFn{std::move(F), Seq});
      ++C->Submitted;
    }
    // With a high-watermark configured, never block in submit: shed at
    // the bound and keep reading — an overloaded lane must not be able to
    // wedge this client's input side.
    Expected<std::future<pipeline::CompileResult>> Fut =
        Opts.LaneHighWatermark
            ? Svc->trySubmit(Ref, C->Id, Opts.LaneHighWatermark)
            : Svc->submit(Ref, C->Id);
    if (!Fut) {
      // Nothing was enqueued for this function, so un-count it. It is
      // still Live.back(): this reader is the only pusher, and deliveries
      // only pop the front.
      {
        std::lock_guard<std::mutex> L(C->M);
        C->Live.pop_back();
        --C->Submitted;
      }
      if (Fut.kind() == ErrorKind::ResourceExhausted) {
        // Shed (watermark hit, or an injected submit fault). Out-of-band
        // record — it can overtake earlier functions' results on the wire
        // — so it quotes the frame seq it refuses. The connection keeps
        // serving.
        ShedSubmits.fetch_add(1, std::memory_order_relaxed);
        pushOut(*C, "ERROR ResourceExhausted: " + oneLine(Fut.message()) +
                        "; seq=" + std::to_string(Seq) +
                        " retry-after-ms=50\n");
        continue;
      }
      break; // Shutdown raced the submission.
    }
    // The future is intentionally dropped: the tagged sink delivers.
  }

  // Input is done (EOF, half-close, fatal input error, or severed socket).
  // Wait for every accepted submission to resolve — delivered to Out, or
  // dropped against a dead connection; both count — before letting the
  // writer finish. The Live deque must not die before the lane is done
  // compiling its functions, and Delivered == Submitted is exactly that.
  {
    std::unique_lock<std::mutex> L(C->M);
    C->DrainedCv.wait(L, [&] { return C->Delivered >= C->Submitted; });
    C->OutputDone = true;
  }
  C->CanPop.notify_all();
  if (C->WriterT.joinable())
    C->WriterT.join();
  C->Sock.shutdownBoth();
  // Everything this connection submitted has resolved, so its registry
  // lane (and through it the grammar pin) can be let go — the governor
  // reaps the lane once idle, which is what makes the entry evictable.
  if (RLane)
    releaseRegLane(RLane);
  Lease.release();
  C->Finished.store(true);
}

void TcpServer::connWriter(std::shared_ptr<Conn> C) {
  for (;;) {
    std::string Bytes;
    {
      std::unique_lock<std::mutex> L(C->M);
      C->CanPop.wait(L, [&] {
        return C->Dead || !C->Out.empty() || C->OutputDone;
      });
      if (C->Dead)
        return;
      if (C->Out.empty())
        return; // OutputDone and drained: orderly end of responses.
      Bytes = std::move(C->Out.front());
      C->Out.pop_front();
    }
    C->CanPush.notify_one();
    if (!C->Sock.writeAll(Bytes)) {
      // Peer vanished mid-write: abandon this connection's output
      // promptly. markDead counts and frees what was still queued; the
      // response in hand never reached the peer either, so it counts too.
      // The reader fails out via the severed socket.
      markDead(*C);
      CancelledCount.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

void TcpServer::reapFinished() {
  // Runs on the accept thread only (as does registration), so the map
  // mutates from one thread and readers-of-the-map (dispatch, stats) just
  // lock. Joining outside ConnsM keeps dispatch unblocked.
  std::vector<std::shared_ptr<Conn>> Done;
  {
    std::lock_guard<std::mutex> L(ConnsM);
    for (auto It = Conns.begin(); It != Conns.end();) {
      if (It->second->Finished.load()) {
        Done.push_back(It->second);
        It = Conns.erase(It);
      } else {
        ++It;
      }
    }
  }
  for (const std::shared_ptr<Conn> &C : Done)
    if (C->ReaderT.joinable())
      C->ReaderT.join();
}

void TcpServer::acceptLoop() {
  for (;;) {
    Expected<Socket> S = Listener.accept();
    if (!S) {
      S.takeError().consume();
      if (Stopping.load())
        break;
      // Transient accept failure (EMFILE and friends): back off briefly
      // rather than spinning.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (Stopping.load())
        break;
      continue;
    }
    // Admission control: past the connection cap, answer with one shed
    // record and close — never block the accept loop behind an overloaded
    // server, and never let an unbounded connection storm grow the thread
    // count. Reap first so finished-but-unreaped connections don't eat
    // the cap.
    if (Opts.MaxConns) {
      reapFinished();
      unsigned Active;
      {
        std::lock_guard<std::mutex> L(ConnsM);
        Active = static_cast<unsigned>(Conns.size());
      }
      if (Active >= Opts.MaxConns) {
        ShedConns.fetch_add(1, std::memory_order_relaxed);
        // Short write into a fresh socket's empty send buffer — cannot
        // meaningfully block; best-effort anyway (the client may already
        // be gone). RAII closes the socket at scope exit.
        S->writeAll(formatf("ERROR ResourceExhausted: server at "
                            "connection cap (%u); retry-after-ms=100\n",
                            Opts.MaxConns));
        continue;
      }
    }
    auto C = std::make_shared<Conn>();
    C->Sock = std::move(*S);
    {
      std::lock_guard<std::mutex> L(ConnsM);
      C->Id = NextConnId++;
      Conns.emplace(C->Id, C);
    }
    Accepted.fetch_add(1);
    C->WriterT = std::thread([this, C] { connWriter(C); });
    C->ReaderT = std::thread([this, C] { connReader(C); });
    reapFinished();
  }
}

void TcpServer::governorLoop() {
  std::unique_lock<std::mutex> G(GovM);
  for (;;) {
    GovCv.wait_for(G, std::chrono::milliseconds(20), [&] { return GovStop; });
    if (GovStop)
      return;
    G.unlock();
    std::size_t Total = 0;
    {
      std::lock_guard<std::mutex> L(LanesM);
      for (const std::unique_ptr<pipeline::CompileService> &Lp : Lanes)
        if (Lp)
          Total += Lp->backend().memoryBytes();
    }
    if (Opts.Registry)
      Total += Opts.Registry->backendBytes();
    BackendBytes.store(Total, std::memory_order_relaxed);
    if (Opts.MemBudgetBytes) {
      // Hysteresis: engage above the budget, release only under 90% of
      // it — one sample hovering at the line must not flap the flag.
      bool P = Pressure.load(std::memory_order_relaxed);
      Pressure.store(P ? Total >= Opts.MemBudgetBytes - Opts.MemBudgetBytes / 10
                       : Total > Opts.MemBudgetBytes,
                     std::memory_order_relaxed);
    }
    if (Opts.Registry) {
      // Registry upkeep: over budget, reap idle lanes immediately (their
      // pins are what keeps entries unevictable), then let the registry
      // evict LRU backends and manage its own pressure lever.
      bool Over = Opts.MemBudgetBytes && Total > Opts.MemBudgetBytes;
      reapIdleRegLanes(/*Force=*/Over);
      Opts.Registry->maintain();
    }
    G.lock();
  }
}

bool TcpServer::beginDrain() {
  std::lock_guard<std::mutex> SL(StopM);
  if (StopDone)
    return false;
  bool Expected = false;
  if (!Draining.compare_exchange_strong(Expected, true))
    return false;
  // Sever only the listener: in-flight connections keep compiling and
  // delivering. Joining the accept thread hands its registration/reaping
  // duty to whoever polls drained() — after this, the connection map only
  // shrinks.
  Stopping.store(true);
  Listener.shutdownBoth();
  if (AcceptThread.joinable())
    AcceptThread.join();
  return true;
}

bool TcpServer::drained() {
  // Safe off the accept thread: beginDrain() joined it, so the polling
  // caller is the sole map mutator now. (Not safe concurrently with
  // stop(), which also joins readers — drive the drain from one thread.)
  reapFinished();
  std::lock_guard<std::mutex> L(ConnsM);
  return Conns.empty();
}

void TcpServer::stop() {
  std::lock_guard<std::mutex> SL(StopM);
  if (StopDone)
    return;
  Stopping.store(true);

  // 0. Retire the governor first so nothing re-tunes lanes mid-teardown.
  {
    std::lock_guard<std::mutex> G(GovM);
    GovStop = true;
  }
  GovCv.notify_all();
  if (GovThread.joinable())
    GovThread.join();

  // 1. No new connections: sever the listener (fails the blocked accept)
  //    and join the accept thread. After this the connection map only
  //    shrinks — registration and reaping both lived on that thread.
  //    (A prior beginDrain() already did both; these are idempotent.)
  Listener.shutdownBoth();
  if (AcceptThread.joinable())
    AcceptThread.join();

  // 2. Sever every connection. This releases every blocked thread in the
  //    backpressure chain: writers blocked in send fail out, delivery
  //    sinks blocked on full Out queues drop, the freed service queues
  //    unblock readers stuck in submit.
  std::vector<std::shared_ptr<Conn>> All;
  {
    std::lock_guard<std::mutex> L(ConnsM);
    for (auto &KV : Conns)
      All.push_back(KV.second);
  }
  for (const std::shared_ptr<Conn> &C : All)
    markDead(*C);

  // 3. Join the readers (each joins its writer). Connections stay in the
  //    map meanwhile so in-flight deliveries keep resolving against them —
  //    the readers' drain waits depend on it.
  for (const std::shared_ptr<Conn> &C : All)
    if (C->ReaderT.joinable())
      C->ReaderT.join();
  {
    std::lock_guard<std::mutex> L(ConnsM);
    Conns.clear();
  }

  // 4. Quiesce the lanes. Everything submitted was already delivered (the
  //    reader epilogues waited on it), so this is a clean join. Every
  //    reader released its registry lane in its epilogue, so the forced
  //    reap sees only idle lanes; dropping them releases the grammar pins
  //    (the entries and their warm backends stay resident in the
  //    registry, ready for a snapshot dump).
  reapIdleRegLanes(/*Force=*/true);
  for (std::unique_ptr<pipeline::CompileService> &L : Lanes)
    if (L)
      L->shutdown();
  Listener.close();
  StopDone = true;
}

//===- serve/TcpServer.h - Socket front for the compile service -----------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network layer over pipeline::CompileService: a TCP server
/// multiplexing many client connections onto long-lived compile services
/// — the "heavy traffic" shape of the paper's amortization argument.
/// Every connection runs on a registry lane: the shared service for one
/// (grammar version, backend kind) pair, borrowing that grammar's backend
/// from a registry::GrammarRegistry. One automaton (or table set) per
/// grammar and backend serves every connection, so each new client starts
/// warm. The server pins its default grammar for its whole life; a
/// connection that sends no GRAMMAR line serves it.
///
/// Threading model: thread-per-connection (one reader, one writer), plus
/// one accept thread — the simplest shape that makes backpressure
/// end-to-end: a slow client's TCP window stalls its writer, the writer
/// stalls the bounded per-connection output queue, a full output queue
/// stalls that lane's ordered delivery, and the service's bounded
/// submission queue stalls the readers feeding it. Nothing is unbounded.
///
/// Wire protocol (line-oriented, the odburg-serve stdin format plus two
/// control requests):
///
///   client -> server
///     GRAMMAR <name-or-fingerprint>
///                                   optional handshake: bind this
///                                   connection to that grammar — a
///                                   registered or built-in target name,
///                                   a spooled <name>.odg (registry
///                                   directory only), or the 16-hex-digit
///                                   fingerprint of a resident version.
///                                   Must precede BACKEND and the first
///                                   function; without it the connection
///                                   serves the server's default grammar
///     BACKEND dp|offline|ondemand|hybrid
///                                   optional handshake, before the first
///                                   function; selects this connection's
///                                   labeling backend (default ondemand)
///     RELOAD <name>                 admin request: re-resolve the
///                                   grammar from its source and
///                                   hot-swap if it changed.
///                                   Answered out-of-band with
///                                   `OK RELOAD <name> epoch=N`;
///                                   connections already streaming keep
///                                   their version until they close
///     STATS                         request a metrics snapshot, any
///                                   time; never binds the connection
///     <s-expr function frames>      blank-line separated, as produced by
///                                   odburg-run --dump-corpus
///     (half-close / EOF)            input done; the server finishes
///                                   delivering this connection's results,
///                                   then closes
///
///   server -> client (per-connection, compile results in submission
///   order)
///     <assembly bytes>              one block per ok function, in this
///                                   connection's submission order
///     ERROR <kind>: <message>\n     diagnostic record: parse errors
///                                   (function skipped, connection stays
///                                   alive), per-function compile
///                                   failures (in their ordered slot),
///                                   protocol misuse
///     STATS {<json>}\n              one-line metrics snapshot of this
///                                   connection's lane: submitted,
///                                   delivered, queue depth, p50/p90/p99
///                                   submit->delivery latency,
///                                   per-connection and server counters
///
/// Failure semantics: a malformed function is skipped with a diagnostic
/// record and the connection keeps serving; a frame over the byte cap
/// poisons framing and closes the connection; an abrupt client disconnect
/// cancels that connection's undelivered results (already-queued work
/// still compiles but its delivery is dropped, counted in
/// cancelledDeliveries()) without disturbing other connections; stop()
/// severs every connection, drains the services, and joins every thread.
///
/// Overload control (all opt-in, see Options): a connection cap answered
/// at accept time with `ERROR ResourceExhausted` instead of queueing, a
/// per-lane submission high-watermark shedding functions with an
/// out-of-band `ERROR ResourceExhausted ... seq=K` record instead of
/// blocking the reader, an idle-connection reaper (`ERROR IdleTimeout`),
/// per-function compile deadlines answered in the ordered slot
/// (`ERROR DeadlineExceeded ... seq=K`), and a memory governor that
/// reports the server degraded while the registry's backends exceed the
/// registry's byte budget.
/// beginDrain()/drained() implement graceful shutdown: stop accepting,
/// finish in-flight work, then stop(). Every path counts — see the
/// counter accessors and the STATS line.
///
//===----------------------------------------------------------------------===//

#ifndef ODBURG_SERVE_TCPSERVER_H
#define ODBURG_SERVE_TCPSERVER_H

#include "ir/SExprParser.h"
#include "pipeline/CompileService.h"
#include "registry/GrammarRegistry.h"
#include "serve/Socket.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

namespace odburg {
namespace serve {

class TcpServer {
public:
  struct Options {
    /// Listen address (numeric IPv4 or "localhost").
    std::string Host = "127.0.0.1";
    /// Listen port; 0 = ephemeral (read the outcome with port()).
    std::uint16_t Port = 0;
    /// Per-lane CompileService worker-pool size (0 = hardware).
    unsigned Workers = 0;
    /// Per-lane service submission bound (0 = service default).
    std::size_t QueueCapacity = 0;
    /// Byte cap per function frame on every connection.
    std::size_t MaxFrameBytes = ir::SExprFunctionStream::DefaultMaxFunctionBytes;
    /// Bound on rendered-but-unwritten results per connection; a full
    /// queue blocks that lane's delivery (the slow-consumer backpressure
    /// point).
    std::size_t MaxPendingWrites = 256;
    /// Lane used by connections that skip the BACKEND handshake.
    BackendKind DefaultBackend = BackendKind::OnDemand;

    /// \name Overload control (0 = feature off, for every knob)
    /// @{
    /// Accept-time connection cap: a connection past the cap is answered
    /// with one `ERROR ResourceExhausted` record and closed — the accept
    /// loop never blocks on an overloaded server.
    unsigned MaxConns = 0;
    /// Per-lane undelivered-submission high-watermark: at or above it the
    /// reader sheds the function with an out-of-band
    /// `ERROR ResourceExhausted` record instead of blocking in submit.
    /// Clamped to the lane's queue capacity (see
    /// CompileService::trySubmit).
    std::size_t LaneHighWatermark = 0;
    /// Reap connections idle (no bytes from the client) past this long.
    /// The client sees an `ERROR IdleTimeout` record, then the close.
    unsigned IdleTimeoutMillis = 0;
    /// Per-function compile deadline: a submission still queued past it
    /// is answered with `ERROR DeadlineExceeded` in its ordered slot
    /// instead of being compiled (see CompileService::Options::DeadlineNs).
    std::uint64_t CompileDeadlineMs = 0;
    /// @}

    /// How long a registry lane (its worker pool and entry pin) survives
    /// with no connections before the governor reaps it, letting the
    /// entry become evictable. Over budget, idle lanes are reaped
    /// immediately.
    unsigned RegistryLaneIdleMillis = 500;
  };

  /// Pins \p DefaultGrammar (resolved as a GRAMMAR handshake would) for
  /// the server's whole life, then binds, listens, and starts accepting.
  /// \p Registry must outlive the server. The governor thread samples the
  /// registry's backend bytes against its MemBudgetBytes (STATS
  /// `degraded`), reaps idle lanes and runs GrammarRegistry::maintain()
  /// each tick — the eviction path.
  static Expected<std::unique_ptr<TcpServer>>
  start(registry::GrammarRegistry &Registry, std::string_view DefaultGrammar,
        Options Opts);

  TcpServer(const TcpServer &) = delete;
  TcpServer &operator=(const TcpServer &) = delete;

  /// stop()s if still running.
  ~TcpServer();

  /// The bound listen port.
  std::uint16_t port() const { return BoundPort; }

  /// Stops accepting, severs every connection, waits for every accepted
  /// submission to finish (delivered or dropped), shuts the lane services
  /// down, and joins all threads. The lanes themselves (and their entry
  /// pins) are freed by the destructor, so their ledgers stay readable
  /// after stop(). Idempotent; safe to call concurrently
  /// with active traffic — blocked submitters and blocked writers are
  /// released, never deadlocked.
  void stop();

  /// Graceful drain, step 1: stop accepting (severs the listener, joins
  /// the accept thread) while existing connections keep compiling and
  /// delivering. Poll drained() for completion, then stop() — or stop()
  /// straight away to force-sever whatever is still in flight. Returns
  /// false if a drain (or stop) already began.
  bool beginDrain();
  /// Whether every connection present at beginDrain() has finished and
  /// been reaped. Only meaningful after beginDrain(); the caller's polling
  /// thread takes over the accept thread's reaping duty.
  bool drained();

  /// Lifetime count of accepted connections.
  std::uint64_t connectionsAccepted() const { return Accepted.load(); }
  /// Currently registered (not yet reaped) connections.
  unsigned connectionsActive() const;
  /// The default grammar's lane service for \p K if a connection has
  /// created it and the governor has not reaped it (tests and metrics);
  /// null otherwise.
  const pipeline::CompileService *laneService(BackendKind K) const;
  /// Live registry lanes — (grammar version, backend kind) services
  /// created by connections and not yet reaped (tests/metrics).
  std::size_t registryLanes() const;

  /// \name Overload/robustness counters (lifetime totals)
  /// @{
  /// Connections refused at accept time by Options::MaxConns.
  std::uint64_t shedConnections() const { return ShedConns.load(); }
  /// Function frames shed at the lane high-watermark.
  std::uint64_t shedSubmits() const { return ShedSubmits.load(); }
  /// Connections reaped by the idle timeout.
  std::uint64_t idleReaped() const { return IdleReapedCount.load(); }
  /// Responses dropped against dead connections — results whose client
  /// vanished before delivery (plus any queued records the death voided).
  std::uint64_t cancelledDeliveries() const { return CancelledCount.load(); }
  /// The memory governor currently reports the lanes over budget.
  bool degraded() const { return Pressure.load(); }
  /// Last backend-bytes sample the governor took (0 until its first tick).
  std::size_t backendBytesSampled() const { return BackendBytes.load(); }
  /// @}

private:
  struct Conn;

  /// One registry lane: the shared compile service for a (grammar
  /// version, backend kind) pair, plus its own pin on the entry — the
  /// service borrows the entry's backend, so the pin must outlive the
  /// service (member order below guarantees destruction order).
  struct RegLane {
    registry::Lease Pin;
    std::unique_ptr<pipeline::CompileService> Svc;
    /// Connections currently bound to this lane; guarded by LanesM. The
    /// governor only reaps lanes at zero.
    unsigned Active = 0;
    /// When Active last hit zero; guarded by LanesM.
    std::chrono::steady_clock::time_point IdleSince;
  };

  TcpServer(registry::GrammarRegistry &Registry, registry::Lease Default,
            Options Opts);

  void acceptLoop();
  void governorLoop();
  void connReader(std::shared_ptr<Conn> C);
  void connWriter(std::shared_ptr<Conn> C);
  void dispatch(std::uint64_t Tag, const pipeline::CompileResult &R);
  Expected<RegLane *> regLane(const registry::Lease &L, BackendKind K);
  void releaseRegLane(RegLane *L);
  void reapIdleRegLanes(bool Force);
  pipeline::CompileService::Options laneServiceOpts(BackendKind K);
  std::string statsJson(BackendKind K, Conn &C,
                        const pipeline::CompileService &Svc,
                        const std::string &GrammarName);
  bool pushOut(Conn &C, std::string Bytes);
  void markDead(Conn &C);
  void reapFinished();

  registry::GrammarRegistry &Registry;
  /// The default grammar's entry, pinned for the server's whole life:
  /// its backends are never evicted, and a RELOAD of its name only
  /// reaches later GRAMMAR handshakes.
  registry::Lease Default;
  Options Opts;
  Socket Listener;
  std::uint16_t BoundPort = 0;
  std::thread AcceptThread;

  mutable std::mutex LanesM;
  /// Registry lanes, keyed by (entry identity, kind) — a hot swap makes a
  /// new entry, hence a new lane, while old-epoch lanes drain out.
  /// Guarded by LanesM.
  std::map<std::pair<const registry::GrammarEntry *, unsigned>,
           std::unique_ptr<RegLane>>
      RegLanes;

  mutable std::mutex ConnsM;
  std::unordered_map<std::uint64_t, std::shared_ptr<Conn>> Conns;
  std::uint64_t NextConnId = 1;

  std::atomic<std::uint64_t> Accepted{0};
  std::atomic<bool> Stopping{false};
  std::atomic<bool> Draining{false};
  std::mutex StopM;
  bool StopDone = false;

  std::atomic<std::uint64_t> ShedConns{0};
  std::atomic<std::uint64_t> ShedSubmits{0};
  std::atomic<std::uint64_t> IdleReapedCount{0};
  std::atomic<std::uint64_t> CancelledCount{0};

  /// The memory governor: samples the registry's backend bytes every
  /// ~20ms and flips the degraded flag with hysteresis (on above the
  /// registry's budget, off below 90% of it).
  std::thread GovThread;
  std::mutex GovM;
  std::condition_variable GovCv;
  bool GovStop = false; ///< Under GovM.
  std::atomic<bool> Pressure{false};
  std::atomic<std::size_t> BackendBytes{0};
};

} // namespace serve
} // namespace odburg

#endif // ODBURG_SERVE_TCPSERVER_H

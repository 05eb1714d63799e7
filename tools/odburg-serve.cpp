//===- tools/odburg-serve.cpp - Streaming compile-service front -----------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent-service front: reads s-expression IR functions from
/// stdin (or a file) and streams their compiled assembly back through one
/// long-lived pipeline::CompileService — the paper's amortization argument
/// as a process. Submission and delivery overlap: while later functions
/// are still being read and compiled, earlier results are already written
/// out, strictly in submission order.
///
/// Wire format in: functions separated by blank lines; within a function,
/// each s-expression is one statement root (exactly what
/// odburg-run --dump-corpus writes and ir::toSExpr prints). A malformed
/// function is reported to stderr with line/column, *skipped*, and the
/// stream keeps serving — the parser's typed ErrorKind::MalformedInput
/// makes that distinction safe.
///
/// Wire format out (--format=asm, default): each function's newline-
/// terminated assembly, concatenated in submission order — byte-identical
/// to odburg-run's batch assembly for the same corpus, on every backend.
/// --format=json frames each result as one JSON object per line instead
/// (seq, ok, instructions, cost, asm / error).
///
/// --tables=PATH makes the offline and hybrid backends pay table
/// generation once per grammar across processes: load the tables from
/// PATH when present (validated by fingerprint and by partition
/// membership — every operator for offline, the grammar's static
/// partition for the hybrid), generate and save them when not. The
/// registry spool does the same through the same function.
///
///   odburg-run --target=x86 --fixed --dump-corpus=c.sexpr --emit-asm=b.s
///   odburg-serve --target=x86 --fixed < c.sexpr | cmp - b.s
///
//===----------------------------------------------------------------------===//

#include "ir/SExprParser.h"
#include "pipeline/CompileService.h"
#include "registry/GrammarRegistry.h"
#include "serve/TcpServer.h"
#include "support/FaultInjection.h"
#include "support/StringUtil.h"
#include "support/Timer.h"
#include "targets/Target.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include <poll.h>
#include <unistd.h>

using namespace odburg;
using namespace odburg::pipeline;
using namespace odburg::targets;

namespace {

struct ServeOptions {
  std::string Target = "x86";
  BackendKind Backend = BackendKind::OnDemand;
  bool ForceFixed = false;
  unsigned Threads = 0;       // 0 = hardware concurrency.
  unsigned QueueCapacity = 0; // 0 = service default.
  bool Json = false;
  std::string TablesPath;
  std::string InputPath; // Empty = stdin.
  // Network mode (--listen): serve the same wire format over TCP instead
  // of stdin/stdout, one lane per connection-selected grammar and kind.
  bool Listen = false;
  unsigned Port = 0;
  std::string Host = "127.0.0.1";
  std::string PortFile;
  // Overload control / robustness (all --listen mode; 0 = off).
  unsigned MaxConns = 0;
  unsigned HighWatermark = 0;
  unsigned IdleTimeoutMillis = 0;
  unsigned DeadlineMillis = 0;
  unsigned MemBudgetMb = 0;
  unsigned DrainTimeoutMillis = 10000;
  std::string Faults; // --faults=SPEC, merged over ODBURG_FAULTS.
  // --listen only: spool directory of the GrammarRegistry behind every
  // connection (.odg grammars, compiled tables, warm snapshots).
  std::string RegistryDir;
  bool NoSnapshots = false; // --no-snapshots: skip warm snapshot load/dump.
};

int usage(const char *Argv0, int Exit) {
  std::fprintf(
      Exit == 0 ? stdout : stderr,
      "usage: %s [options] [INPUT]\n"
      "\n"
      "Reads s-expression IR functions (blank-line separated; one\n"
      "s-expression per statement root) from INPUT or stdin, compiles them\n"
      "through a persistent streaming CompileService, and writes each\n"
      "function's assembly to stdout in submission order — while later\n"
      "functions are still being read and compiled. Malformed functions\n"
      "are reported to stderr and skipped; the stream keeps serving.\n"
      "\n"
      "  --target=NAME         target grammar (default x86)\n"
      "  --backend=NAME        labeling backend: dp, offline, ondemand,\n"
      "                        hybrid (default ondemand)\n"
      "  --fixed               use the fixed-cost (stripped) grammar\n"
      "                        (implied by --backend=offline)\n"
      "  --threads=N           service worker pool size (default: hardware\n"
      "                        concurrency)\n"
      "  --queue=N             submission queue bound — backpressure point\n"
      "                        (default: 4x workers)\n"
      "  --format=asm|json     output framing (default asm): raw assembly,\n"
      "                        or one JSON record per result line\n"
      "  --tables=PATH         offline/hybrid backends: load the compiled\n"
      "                        tables from PATH if present (fingerprint-\n"
      "                        and partition-checked), else generate and\n"
      "                        save them there (tmp file + rename). A\n"
      "                        dyn-free grammar's tables serve both\n"
      "                        backends; a partitioned hybrid dump is\n"
      "                        regenerated for offline\n"
      "  --listen=PORT         serve over TCP instead of stdin/stdout\n"
      "                        (0 = ephemeral port). Clients speak the same\n"
      "                        wire format, may pick a backend per\n"
      "                        connection with a 'BACKEND dp|offline|\n"
      "                        ondemand|hybrid' first line (default:\n"
      "                        --backend),\n"
      "                        and can request a 'STATS' metrics line.\n"
      "                        Runs until SIGINT/SIGTERM.\n"
      "  --host=ADDR           listen address (default 127.0.0.1)\n"
      "  --port-file=PATH      write the bound port to PATH once listening\n"
      "                        (for scripts using --listen=0)\n"
      "\n"
      "Overload control (--listen mode; 0 disables each):\n"
      "  --max-conns=N         accept-time connection cap; connections past\n"
      "                        it get 'ERROR ResourceExhausted' and a close\n"
      "  --high-watermark=N    per-lane undelivered-submission bound; at it\n"
      "                        functions are shed with an out-of-band\n"
      "                        'ERROR ResourceExhausted ... seq=K' record\n"
      "                        instead of blocking the reader\n"
      "  --idle-timeout=MS     reap connections with no client bytes for MS\n"
      "                        ('ERROR IdleTimeout', then close)\n"
      "  --deadline-ms=MS      per-function compile deadline; expired\n"
      "                        submissions answer 'ERROR DeadlineExceeded'\n"
      "                        in their ordered slot\n"
      "  --mem-budget=MB       backend-memory budget; a governor reports\n"
      "                        the server degraded while usage exceeds it\n"
      "                        and drives LRU eviction of idle grammars\n"
      "  --registry-dir=DIR    spool directory for the server's grammar\n"
      "                        registry. Without it, a 'GRAMMAR <name>'\n"
      "                        first line picks any built-in target; DIR\n"
      "                        adds DIR/<name>.odg grammars and spools\n"
      "                        compiled tables and warm-automaton\n"
      "                        snapshots across restarts. 'RELOAD <name>'\n"
      "                        hot-swaps an edited grammar\n"
      "  --no-snapshots        with --registry-dir: do not load or dump\n"
      "                        warm automaton snapshots\n"
      "  --drain-timeout=MS    SIGTERM/SIGINT drain budget before in-flight\n"
      "                        work is force-severed (default 10000)\n"
      "  --faults=SPEC         arm fault-injection sites (also read from\n"
      "                        ODBURG_FAULTS). SPEC = site:trigger[,...];\n"
      "                        sites: socket-send, socket-recv,\n"
      "                        socket-accept, service-submit, tables-load,\n"
      "                        state-compute, registry-load,\n"
      "                        registry-evict; triggers: nth=N, every=K,\n"
      "                        p=P[@seed]\n"
      "  --help                this text\n"
      "\n"
      "Exit status: 0 when every function compiled, 1 when any function\n"
      "was skipped (parse error) or failed to compile, 2 on bad usage.\n"
      "In --listen mode: 0 on clean drain (all connections finished within\n"
      "--drain-timeout), 3 when the drain timed out or a second signal\n"
      "forced the stop, 2 on startup failure.\n",
      Argv0);
  return Exit;
}

bool parseArgs(int Argc, char **Argv, ServeOptions &Opts, int &ExitCode) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    auto Value = [&Arg](std::string_view Prefix) {
      return Arg.substr(Prefix.size());
    };
    if (Arg == "--help" || Arg == "-h") {
      ExitCode = usage(Argv[0], 0);
      return false;
    }
    if (Arg == "--fixed") {
      Opts.ForceFixed = true;
    } else if (startsWith(Arg, "--target=")) {
      Opts.Target = std::string(Value("--target="));
    } else if (startsWith(Arg, "--backend=")) {
      Expected<BackendKind> K = parseBackendKind(trim(Value("--backend=")));
      if (!K) {
        std::fprintf(stderr, "error: %s\n", K.message().c_str());
        ExitCode = usage(Argv[0], 2);
        return false;
      }
      Opts.Backend = *K;
    } else if (startsWith(Arg, "--threads=")) {
      if (!parseUnsigned(Value("--threads="), Opts.Threads)) {
        std::fprintf(stderr, "invalid --threads value\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else if (startsWith(Arg, "--queue=")) {
      if (!parseUnsigned(Value("--queue="), Opts.QueueCapacity) ||
          Opts.QueueCapacity == 0) {
        std::fprintf(stderr, "invalid --queue value\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else if (startsWith(Arg, "--format=")) {
      std::string_view V = Value("--format=");
      if (V == "asm") {
        Opts.Json = false;
      } else if (V == "json") {
        Opts.Json = true;
      } else {
        std::fprintf(stderr, "invalid --format (asm or json)\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else if (startsWith(Arg, "--tables=")) {
      Opts.TablesPath = std::string(Value("--tables="));
    } else if (startsWith(Arg, "--listen=")) {
      if (!parseUnsigned(Value("--listen="), Opts.Port) ||
          Opts.Port > 65535) {
        std::fprintf(stderr, "invalid --listen port\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
      Opts.Listen = true;
    } else if (startsWith(Arg, "--host=")) {
      Opts.Host = std::string(Value("--host="));
    } else if (startsWith(Arg, "--port-file=")) {
      Opts.PortFile = std::string(Value("--port-file="));
    } else if (startsWith(Arg, "--max-conns=")) {
      if (!parseUnsigned(Value("--max-conns="), Opts.MaxConns)) {
        std::fprintf(stderr, "invalid --max-conns value\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else if (startsWith(Arg, "--high-watermark=")) {
      if (!parseUnsigned(Value("--high-watermark="), Opts.HighWatermark)) {
        std::fprintf(stderr, "invalid --high-watermark value\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else if (startsWith(Arg, "--idle-timeout=")) {
      if (!parseUnsigned(Value("--idle-timeout="), Opts.IdleTimeoutMillis)) {
        std::fprintf(stderr, "invalid --idle-timeout value\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else if (startsWith(Arg, "--deadline-ms=")) {
      if (!parseUnsigned(Value("--deadline-ms="), Opts.DeadlineMillis)) {
        std::fprintf(stderr, "invalid --deadline-ms value\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else if (startsWith(Arg, "--mem-budget=")) {
      if (!parseUnsigned(Value("--mem-budget="), Opts.MemBudgetMb)) {
        std::fprintf(stderr, "invalid --mem-budget value (megabytes)\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else if (startsWith(Arg, "--drain-timeout=")) {
      if (!parseUnsigned(Value("--drain-timeout="),
                         Opts.DrainTimeoutMillis)) {
        std::fprintf(stderr, "invalid --drain-timeout value\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else if (startsWith(Arg, "--faults=")) {
      Opts.Faults = std::string(Value("--faults="));
    } else if (startsWith(Arg, "--registry-dir=")) {
      Opts.RegistryDir = std::string(Value("--registry-dir="));
      if (Opts.RegistryDir.empty()) {
        std::fprintf(stderr, "invalid --registry-dir (empty)\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else if (Arg == "--no-snapshots") {
      Opts.NoSnapshots = true;
    } else if (!startsWith(Arg, "--")) {
      if (!Opts.InputPath.empty()) {
        std::fprintf(stderr, "more than one INPUT path\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
      Opts.InputPath = std::string(Arg);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", Argv[I]);
      ExitCode = usage(Argv[0], 2);
      return false;
    }
  }
  return true;
}

std::string jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

/// Self-pipe for signal-driven shutdown: the handler writes one byte (the
/// only async-signal-safe notification we need), main blocks in read.
int SignalPipe[2] = {-1, -1};

extern "C" void onStopSignal(int) {
  char B = 1;
  ssize_t R = ::write(SignalPipe[1], &B, 1);
  (void)R;
}

/// The --listen mode: run a TcpServer until SIGINT or SIGTERM, then stop
/// it cleanly (drain connections, join every thread). The target moves
/// into the server's grammar registry as its default grammar.
int serveNetwork(const ServeOptions &Opts, Target &T) {
  if (!Opts.InputPath.empty()) {
    std::fprintf(stderr, "error: --listen reads from sockets, not INPUT\n");
    return 2;
  }
  if (Opts.Json) {
    std::fprintf(stderr, "error: --format=json is stdin-mode only (the "
                         "socket protocol frames errors in-band)\n");
    return 2;
  }
  if (!Opts.TablesPath.empty())
    std::fprintf(stderr, "odburg-serve: note: --tables is ignored in "
                         "--listen mode (lanes generate their own)\n");

  serve::TcpServer::Options SrvOpts;
  SrvOpts.Host = Opts.Host;
  SrvOpts.Port = static_cast<std::uint16_t>(Opts.Port);
  SrvOpts.Workers = Opts.Threads;
  SrvOpts.QueueCapacity = Opts.QueueCapacity;
  SrvOpts.DefaultBackend = Opts.Backend;
  SrvOpts.MaxConns = Opts.MaxConns;
  SrvOpts.LaneHighWatermark = Opts.HighWatermark;
  SrvOpts.IdleTimeoutMillis = Opts.IdleTimeoutMillis;
  SrvOpts.CompileDeadlineMs = Opts.DeadlineMillis;

  // One registry behind every connection, in memory unless --registry-dir
  // spools tables and warm snapshots. Declared before the server so it
  // outlives every lease the server's lanes hold.
  registry::GrammarRegistry::Options RO;
  RO.Dir = Opts.RegistryDir;
  RO.MemBudgetBytes = static_cast<std::uint64_t>(Opts.MemBudgetMb) << 20;
  RO.LoadSnapshots = !Opts.NoSnapshots;
  registry::GrammarRegistry Registry(std::move(RO));
  // The target is the default grammar. --fixed registers the stripped
  // grammar alone, so every backend serves it (offline always does).
  Expected<registry::Lease> Registered =
      Opts.ForceFixed
          ? Registry.registerGrammar(T.Name, std::move(T.Fixed), DynCostTable())
          : Registry.registerGrammar(T.Name, std::move(T.G), std::move(T.Dyn),
                                     std::move(T.Fixed));
  if (!Registered) {
    std::fprintf(stderr, "error: %s\n", Registered.message().c_str());
    return 2;
  }

  Expected<std::unique_ptr<serve::TcpServer>> Server =
      serve::TcpServer::start(Registry, T.Name, std::move(SrvOpts));
  if (!Server) {
    std::fprintf(stderr, "error: %s\n", Server.message().c_str());
    return 2;
  }

  if (!Opts.PortFile.empty()) {
    // Write-then-rename so a polling script never reads a half-written
    // file.
    std::string Tmp = Opts.PortFile + ".tmp";
    std::ofstream Out(Tmp, std::ios::trunc);
    Out << (*Server)->port() << "\n";
    Out.close();
    if (!Out || std::rename(Tmp.c_str(), Opts.PortFile.c_str()) != 0) {
      std::fprintf(stderr, "error: cannot write port file '%s'\n",
                   Opts.PortFile.c_str());
      return 2;
    }
  }
  std::fprintf(stderr,
               "odburg-serve: listening on %s:%u (target=%s, default "
               "backend=%s, gram=%s%s%s)\n",
               Opts.Host.c_str(), (*Server)->port(), Opts.Target.c_str(),
               backendName(Opts.Backend),
               Opts.ForceFixed ? "fixed" : "full",
               Opts.RegistryDir.empty() ? "" : ", registry=",
               Opts.RegistryDir.c_str());

  if (::pipe(SignalPipe) != 0) {
    std::fprintf(stderr, "error: pipe: %s\n", std::strerror(errno));
    return 2;
  }
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGTERM, onStopSignal);

  char B;
  while (::read(SignalPipe[0], &B, 1) < 0 && errno == EINTR) {
  }

  // Graceful drain: stop accepting, let in-flight connections finish
  // within the drain budget, then stop. A second signal — or the budget
  // running out — forces the stop (exit 3); a clean drain exits 0.
  std::fprintf(stderr, "odburg-serve: draining (budget %u ms; signal again "
                       "to force)\n",
               Opts.DrainTimeoutMillis);
  (*Server)->beginDrain();
  bool Forced = false;
  Stopwatch DrainClock;
  while (!(*Server)->drained()) {
    if (DrainClock.elapsedNs() / 1000000 >= Opts.DrainTimeoutMillis) {
      Forced = true;
      break;
    }
    struct pollfd P = {SignalPipe[0], POLLIN, 0};
    int R = ::poll(&P, 1, 50);
    if (R > 0) {
      Forced = true; // Second signal: the operator wants out now.
      break;
    }
    if (R < 0 && errno != EINTR) {
      Forced = true;
      break;
    }
  }

  std::fprintf(stderr, "odburg-serve: %s\n",
               Forced ? "drain forced; severing in-flight connections"
                      : "drained clean; shutting down");
  (*Server)->stop();
  if (!Opts.RegistryDir.empty()) {
    // The server is quiescent now; persist the warm automata so the next
    // process serves its first batch out of the warm cache.
    if (!Opts.NoSnapshots) {
      if (Error E = Registry.dumpWarmSnapshots())
        std::fprintf(stderr, "odburg-serve: warm snapshot dump failed: %s\n",
                     E.message().c_str());
    }
    registry::RegistryStats RS = Registry.statsSnapshot();
    std::fprintf(
        stderr,
        "odburg-serve: registry — %llu resident grammars, %llu acquires, "
        "%llu evictions, %llu hot swaps, %llu snapshot hits, %llu misses, "
        "%llu tables loads\n",
        static_cast<unsigned long long>(RS.ResidentGrammars),
        static_cast<unsigned long long>(RS.Acquires),
        static_cast<unsigned long long>(RS.Evictions),
        static_cast<unsigned long long>(RS.HotSwaps),
        static_cast<unsigned long long>(RS.SnapshotHits),
        static_cast<unsigned long long>(RS.SnapshotMisses),
        static_cast<unsigned long long>(RS.TablesLoads));
  }
  std::fprintf(stderr,
               "odburg-serve: served %llu connections (%llu shed, %llu "
               "submit-shed, %llu idle-reaped, %llu cancelled deliveries, "
               "%llu faults injected)\n",
               static_cast<unsigned long long>(
                   (*Server)->connectionsAccepted()),
               static_cast<unsigned long long>((*Server)->shedConnections()),
               static_cast<unsigned long long>((*Server)->shedSubmits()),
               static_cast<unsigned long long>((*Server)->idleReaped()),
               static_cast<unsigned long long>(
                   (*Server)->cancelledDeliveries()),
               static_cast<unsigned long long>(fault::firedTotal()));
  return Forced ? 3 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  ServeOptions Opts;
  int ExitCode = 0;
  if (!parseArgs(Argc, Argv, Opts, ExitCode))
    return ExitCode;

  // Arm fault-injection sites: the environment first (so harnesses can
  // inject without touching the command line), then --faults on top.
  if (Error E = fault::configureFromEnv()) {
    std::fprintf(stderr, "error: ODBURG_FAULTS: %s\n", E.message().c_str());
    return 2;
  }
  if (!Opts.Faults.empty()) {
    if (Error E = fault::configure(Opts.Faults)) {
      std::fprintf(stderr, "error: --faults: %s\n", E.message().c_str());
      return 2;
    }
  }

  Expected<std::unique_ptr<Target>> TOrErr = makeTarget(Opts.Target);
  if (!TOrErr) {
    std::fprintf(stderr, "error: %s\n", TOrErr.message().c_str());
    return 2;
  }
  Target &T = **TOrErr;
  if (Opts.Listen)
    return serveNetwork(Opts, T);
  // Offline tables cannot encode dynamic costs, so that backend always
  // serves the stripped grammar; --fixed levels the others onto it for
  // cross-backend byte-identity.
  bool Fixed = Opts.ForceFixed || Opts.Backend == BackendKind::Offline;
  const Grammar &G = Fixed ? T.Fixed : T.G;
  const DynCostTable *Dyn = Fixed ? nullptr : &T.Dyn;

  // --tables: load the offline/hybrid tables when the file validates,
  // otherwise generate and save them; log what happened to the file.
  const char *TablesPath = Opts.TablesPath.c_str();
  registry::TablesSpoolReport Spool;
  Expected<std::unique_ptr<LabelerBackend>> Backend =
      registry::createSpooledBackend(Opts.Backend, G, Dyn,
                                     LabelerBackend::Options(),
                                     Opts.TablesPath, /*Save=*/true, Spool);
  if (Spool.Loaded)
    std::fprintf(stderr, "odburg-serve: loaded offline tables from %s "
                         "(%u states, %.1f ms)\n",
                 TablesPath, (*Backend)->tables()->stats().NumStates,
                 (*Backend)->tables()->stats().GenerationMs);
  if (!Spool.Rejected.empty())
    std::fprintf(stderr,
                 "odburg-serve: ignoring %s (%s); regenerating tables\n",
                 TablesPath, Spool.Rejected.c_str());
  if (!Spool.SaveError.empty())
    std::fprintf(stderr, "odburg-serve: could not save tables: %s\n",
                 Spool.SaveError.c_str());
  if (Spool.Saved)
    std::fprintf(stderr, "odburg-serve: saved offline tables to %s\n",
                 TablesPath);
  if (!Backend) {
    std::fprintf(stderr, "error: %s backend: %s\n", backendName(Opts.Backend),
                 Backend.message().c_str());
    return 2;
  }

  std::ifstream FileIn;
  if (!Opts.InputPath.empty()) {
    FileIn.open(Opts.InputPath);
    if (!FileIn) {
      std::fprintf(stderr, "error: cannot open input '%s'\n",
                   Opts.InputPath.c_str());
      return 2;
    }
  }
  std::istream &In = Opts.InputPath.empty() ? std::cin : FileIn;

  // Submitted functions stay alive until their result is delivered; the
  // sink frees each one as its assembly goes out, so memory is bounded by
  // the service's queue capacity, not the stream length.
  std::mutex LiveM;
  std::unordered_map<std::size_t, std::unique_ptr<ir::IRFunction>> Live;
  std::uint64_t FailedCompiles = 0;

  CompileService::Options SvcOpts;
  SvcOpts.Backend = Opts.Backend;
  SvcOpts.Workers = Opts.Threads;
  SvcOpts.QueueCapacity = Opts.QueueCapacity;
  const bool Json = Opts.Json;
  SvcOpts.OnResult = [&](std::size_t Seq, const CompileResult &R) {
    // Fired in submission order, one at a time — stdout stays a clean
    // ordered stream with no extra locking.
    if (Json) {
      std::string Rec = "{\"seq\": " + std::to_string(Seq);
      if (R.ok()) {
        Rec += ", \"ok\": true, \"instructions\": " +
               std::to_string(R.Instructions) +
               ", \"cost\": " + std::to_string(R.Sel.TotalCost.value()) +
               ", \"asm\": \"" + jsonEscape(R.Asm) + "\"";
      } else {
        Rec += ", \"ok\": false, \"error\": \"" + jsonEscape(R.Diagnostic) +
               "\"";
      }
      Rec += "}\n";
      std::fwrite(Rec.data(), 1, Rec.size(), stdout);
    } else {
      std::fwrite(R.Asm.data(), 1, R.Asm.size(), stdout);
    }
    std::fflush(stdout);
    std::lock_guard<std::mutex> L(LiveM);
    if (!R.ok()) {
      ++FailedCompiles;
      std::fprintf(stderr, "odburg-serve: function %zu failed: %s\n", Seq,
                   R.Diagnostic.c_str());
    }
    Live.erase(Seq);
  };

  std::unique_ptr<CompileService> Service = CompileService::create(
      G, Dyn, std::move(SvcOpts), std::move(*Backend));

  Stopwatch Wall;
  ir::SExprFunctionStream Stream(In, G);
  std::uint64_t Accepted = 0, Skipped = 0;
  bool StreamBroken = false;
  while (true) {
    auto F = std::make_unique<ir::IRFunction>();
    Expected<bool> Next = Stream.next(*F);
    if (!Next) {
      // Malformed functions are skippable — the stream stays alive. An
      // I/O failure is not: the input is gone, stop serving what's left.
      if (Next.kind() != ErrorKind::MalformedInput) {
        std::fprintf(stderr, "odburg-serve: %s\n", Next.message().c_str());
        StreamBroken = true;
        break;
      }
      ++Skipped;
      std::fprintf(stderr, "odburg-serve: skipping function: %s\n",
                   Next.message().c_str());
      continue;
    }
    if (!*Next)
      break; // Clean end of input.
    // Park the function before submitting: the sink may deliver (and
    // free) it before submit() even returns.
    ir::IRFunction &Ref = *F;
    {
      std::lock_guard<std::mutex> L(LiveM);
      Live.emplace(Accepted, std::move(F));
    }
    Expected<std::future<CompileResult>> Fut = Service->submit(Ref);
    if (!Fut) {
      std::fprintf(stderr, "error: %s\n", Fut.message().c_str());
      return 1;
    }
    ++Accepted;
  }
  Service->drain();
  std::uint64_t ElapsedNs = Wall.elapsedNs();
  unsigned Workers = Service->workers();
  Service->shutdown();

  std::uint64_t Failed;
  {
    std::lock_guard<std::mutex> L(LiveM);
    Failed = FailedCompiles;
  }
  std::fprintf(stderr,
               "odburg-serve: target=%s backend=%s gram=%s workers=%u — "
               "served %llu functions (%llu skipped, %llu failed) in %.1f ms\n",
               Opts.Target.c_str(), backendName(Opts.Backend),
               Fixed ? "fixed" : "full", Workers,
               static_cast<unsigned long long>(Accepted),
               static_cast<unsigned long long>(Skipped),
               static_cast<unsigned long long>(Failed),
               static_cast<double>(ElapsedNs) / 1e6);
  return (Skipped || Failed || StreamBroken) ? 1 : 0;
}

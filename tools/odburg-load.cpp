//===- tools/odburg-load.cpp - Concurrent load generator for odburg-serve -===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a running `odburg-serve --listen` with N concurrent connections
/// and validates every byte that comes back. Each connection:
///
///   1. optionally sends the `BACKEND <kind>` handshake;
///   2. streams its corpus (blank-line-framed s-expression functions);
///   3. reads exactly the expected assembly and compares it byte-for-byte
///      against the reference — the server's ordered-delivery promise is
///      per connection, so any reordering, loss, or cross-connection
///      bleed is a hard failure;
///   4. requests `STATS` (after all result records arrived, so the
///      out-of-band reply cannot interleave with result bytes) and checks
///      the counters are live;
///   5. half-closes and expects orderly EOF.
///
/// Two corpus modes: `--corpus`/`--reference` replays files produced by
/// odburg-run (`--dump-corpus` / `--emit-asm`) — the CI end-to-end smoke;
/// without them each connection generates its own mixed-size synthetic
/// corpus (profile and function sizes vary by connection index) and
/// computes its reference assembly locally through the same pipeline the
/// server runs, so validation needs no prior artifacts.
///
/// Robustness-aware validation: the self-generating mode knows each
/// function's reference block, so it walks the response record by record
/// — an `ERROR ResourceExhausted ... seq=K` (watermark shed) or
/// `ERROR DeadlineExceeded ... seq=K` record marks block K shed, and
/// every block the server *did* deliver must still match its reference
/// byte-for-byte. Overload refusals (connection-cap shed, watermark shed,
/// torn streams from injected socket faults) are *retryable*: with
/// `--retry=N` the connection backs off (jittered exponential) and tries
/// again; a byte mismatch or an unexpected diagnostic is always a hard
/// failure. `--allow-shed` accepts an attempt whose delivered subset
/// matched even if some blocks were shed.
///
/// Exit status: 0 when every connection validated, 1 on any mismatch,
/// transport error, or dead STATS counters, 2 on bad usage.
///
//===----------------------------------------------------------------------===//

#include "ir/Node.h"
#include "pipeline/CompileService.h"
#include "serve/Socket.h"
#include "support/RNG.h"
#include "support/StringUtil.h"
#include "support/Timer.h"
#include "targets/Target.h"
#include "workload/Synthetic.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace odburg;
using namespace odburg::serve;
using namespace odburg::targets;

namespace {

struct LoadOptions {
  std::string Host = "127.0.0.1";
  unsigned Port = 0;
  unsigned Connections = 8;
  /// Send the BACKEND handshake when set.
  bool PickBackend = false;
  BackendKind Backend = BackendKind::OnDemand;
  /// File mode: replay this corpus and expect exactly this reference.
  std::string CorpusPath;
  std::string ReferencePath;
  /// Self-generating mode: target + per-connection synthetic corpora.
  std::string Target = "x86";
  /// Multi-tenant mode: cycle connections over these grammars, each
  /// opening with a `GRAMMAR <name>` handshake. Self-generating mode
  /// only.
  std::vector<std::string> Grammars;
  bool ForceFixed = false;
  unsigned Functions = 24;
  /// Request and validate a STATS line per connection.
  bool Stats = true;
  unsigned TimeoutMillis = 60000;
  /// Retries per connection on retryable outcomes (overload sheds, torn
  /// streams), with jittered exponential backoff between attempts.
  unsigned Retries = 0;
  /// Accept an attempt whose delivered blocks all matched even though
  /// some blocks were shed (self-generating mode only; corpus mode has
  /// no block map to skip against).
  bool AllowShed = false;
  /// Print each connection's STATS line to stdout (for harness greps).
  bool PrintStats = false;
};

int usage(const char *Argv0, int Exit) {
  std::fprintf(
      Exit == 0 ? stdout : stderr,
      "usage: %s --connect=HOST:PORT [options]\n"
      "\n"
      "Load-tests a running `odburg-serve --listen` server: N concurrent\n"
      "connections, each validating its responses byte-for-byte against\n"
      "reference assembly, then checking a STATS snapshot.\n"
      "\n"
      "  --connect=HOST:PORT   the server (required)\n"
      "  --connections=N       concurrent connections (default 8)\n"
      "  --backend=NAME        send a 'BACKEND NAME' handshake per\n"
      "                        connection (dp, offline, ondemand);\n"
      "                        default: none (server default lane)\n"
      "  --corpus=PATH         replay this wire-format corpus on every\n"
      "                        connection (from odburg-run --dump-corpus)\n"
      "  --reference=PATH      the assembly every connection must receive\n"
      "                        (from odburg-run --emit-asm); required with\n"
      "                        --corpus\n"
      "  --target=NAME         self-generating mode: target grammar the\n"
      "                        server runs (default x86)\n"
      "  --grammars=A,B,...    multi-tenant mode: cycle connections over\n"
      "                        these grammars, each starting with a\n"
      "                        'GRAMMAR <name>' handshake; references\n"
      "                        are computed per grammar (self-generating\n"
      "                        mode only)\n"
      "  --fixed               self-generating mode: the server serves the\n"
      "                        fixed-cost grammar (--fixed /\n"
      "                        --backend=offline); compute references\n"
      "                        against it\n"
      "  --functions=N         self-generating mode: functions per\n"
      "                        connection (default 24)\n"
      "  --no-stats            skip the per-connection STATS check\n"
      "  --timeout=MILLIS      per-read socket timeout (default 60000)\n"
      "  --retry=N             retry a connection up to N times on\n"
      "                        retryable outcomes — ResourceExhausted\n"
      "                        sheds, torn streams — with jittered\n"
      "                        exponential backoff (default 0)\n"
      "  --allow-shed          accept attempts with shed blocks as long\n"
      "                        as every delivered block matched its\n"
      "                        reference (self-generating mode)\n"
      "  --print-stats         print each connection's STATS line to\n"
      "                        stdout\n"
      "  --help                this text\n",
      Argv0);
  return Exit;
}

bool parseArgs(int Argc, char **Argv, LoadOptions &Opts, int &ExitCode) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    auto Value = [&Arg](std::string_view Prefix) {
      return Arg.substr(Prefix.size());
    };
    if (Arg == "--help" || Arg == "-h") {
      ExitCode = usage(Argv[0], 0);
      return false;
    }
    if (startsWith(Arg, "--connect=")) {
      std::string_view V = Value("--connect=");
      std::size_t Colon = V.rfind(':');
      if (Colon == std::string_view::npos ||
          !parseUnsigned(V.substr(Colon + 1), Opts.Port) || Opts.Port == 0 ||
          Opts.Port > 65535) {
        std::fprintf(stderr, "invalid --connect (need HOST:PORT)\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
      Opts.Host = std::string(V.substr(0, Colon));
    } else if (startsWith(Arg, "--connections=")) {
      if (!parseUnsigned(Value("--connections="), Opts.Connections) ||
          Opts.Connections == 0) {
        std::fprintf(stderr, "invalid --connections value\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else if (startsWith(Arg, "--backend=")) {
      Expected<BackendKind> K = parseBackendKind(trim(Value("--backend=")));
      if (!K) {
        std::fprintf(stderr, "error: %s\n", K.message().c_str());
        ExitCode = usage(Argv[0], 2);
        return false;
      }
      Opts.Backend = *K;
      Opts.PickBackend = true;
    } else if (startsWith(Arg, "--corpus=")) {
      Opts.CorpusPath = std::string(Value("--corpus="));
    } else if (startsWith(Arg, "--reference=")) {
      Opts.ReferencePath = std::string(Value("--reference="));
    } else if (startsWith(Arg, "--target=")) {
      Opts.Target = std::string(Value("--target="));
    } else if (startsWith(Arg, "--grammars=")) {
      std::string_view V = Value("--grammars=");
      while (!V.empty()) {
        std::size_t Comma = V.find(',');
        std::string_view Name = trim(V.substr(0, Comma));
        if (!Name.empty())
          Opts.Grammars.emplace_back(Name);
        V = Comma == std::string_view::npos ? std::string_view()
                                            : V.substr(Comma + 1);
      }
      if (Opts.Grammars.empty()) {
        std::fprintf(stderr, "invalid --grammars (no names)\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else if (Arg == "--fixed") {
      Opts.ForceFixed = true;
    } else if (startsWith(Arg, "--functions=")) {
      if (!parseUnsigned(Value("--functions="), Opts.Functions) ||
          Opts.Functions == 0) {
        std::fprintf(stderr, "invalid --functions value\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else if (Arg == "--no-stats") {
      Opts.Stats = false;
    } else if (startsWith(Arg, "--timeout=")) {
      if (!parseUnsigned(Value("--timeout="), Opts.TimeoutMillis)) {
        std::fprintf(stderr, "invalid --timeout value\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else if (startsWith(Arg, "--retry=")) {
      if (!parseUnsigned(Value("--retry="), Opts.Retries)) {
        std::fprintf(stderr, "invalid --retry value\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else if (Arg == "--allow-shed") {
      Opts.AllowShed = true;
    } else if (Arg == "--print-stats") {
      Opts.PrintStats = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", Argv[I]);
      ExitCode = usage(Argv[0], 2);
      return false;
    }
  }
  if (Opts.Port == 0) {
    std::fprintf(stderr, "--connect is required\n");
    ExitCode = usage(Argv[0], 2);
    return false;
  }
  if (Opts.CorpusPath.empty() != Opts.ReferencePath.empty()) {
    std::fprintf(stderr, "--corpus and --reference go together\n");
    ExitCode = usage(Argv[0], 2);
    return false;
  }
  if (!Opts.Grammars.empty() && !Opts.CorpusPath.empty()) {
    std::fprintf(stderr, "--grammars is self-generating mode only (a file "
                         "corpus is single-grammar)\n");
    ExitCode = usage(Argv[0], 2);
    return false;
  }
  return true;
}

/// One connection's workload: the bytes to send and the reference blocks
/// to expect back. BlockAware means Blocks maps one-to-one onto submitted
/// functions (self-generating mode), so a shed record can be matched to
/// the exact block it skips; corpus replay treats the whole reference as
/// one opaque block, and only a shed-free attempt can validate.
struct ConnPlan {
  std::string Wire;
  std::vector<std::string> Blocks;
  bool BlockAware = false;
  /// Multi-tenant mode: send `GRAMMAR <this>` before anything else.
  std::string GrammarName;
};

/// Renders a corpus in the wire format (one s-expression line per root,
/// blank line between functions) — mirrors odburg-run's --dump-corpus.
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

/// Self-generating mode: a per-connection synthetic corpus with mixed
/// function sizes (profile and node budget cycle with the connection
/// index) and its locally computed reference assembly over \p G.
Expected<ConnPlan> makePlan(const LoadOptions &Opts, const Grammar &G,
                            const DynCostTable *Dyn, unsigned ConnIdx) {
  const std::vector<workload::Profile> &Profiles = workload::specProfiles();
  workload::Profile P = Profiles[ConnIdx % Profiles.size()];
  // Distinct seeds and sizes per connection: small, medium, and large
  // functions in the same run exercise the scheduler's interleaving.
  P.Seed += 1000 + ConnIdx;
  unsigned Nodes = 60 + (ConnIdx % 5) * 120;
  Expected<std::vector<ir::IRFunction>> Corpus =
      workload::generateBatch(P, G, Opts.Functions, Nodes);
  if (!Corpus)
    return Corpus.takeError();

  ConnPlan Plan;
  Plan.Wire = corpusToWire(*Corpus, G);

  // DP reference, compiled on this thread: byte-identity across backends
  // holds for the same grammar, and the DP backend needs no tables.
  DPBackend Ref(G, Dyn);
  pipeline::WorkerState WS;
  Plan.BlockAware = true;
  Plan.Blocks.reserve(Corpus->size());
  for (ir::IRFunction &F : *Corpus) {
    pipeline::CompileResult R;
    pipeline::compileFunctionWith(G, Dyn, Ref, F, WS, R);
    if (!R.ok())
      return Error::make("reference compile failed: " + R.Diagnostic);
    Plan.Blocks.push_back(std::move(R.Asm));
  }
  return Plan;
}

/// Per-attempt classification: retryable failures are transient overload
/// outcomes (the next attempt may land clean); hard failures are
/// correctness violations no number of retries can fix.
struct ConnOutcome {
  bool Ok = false;
  bool Retryable = false; ///< Meaningful when !Ok.
  std::string Detail;
  std::uint64_t BytesIn = 0;
  unsigned ShedBlocks = 0; ///< Blocks the final attempt saw shed.
  unsigned Attempts = 1;   ///< Set by the retry wrapper.
  std::string StatsLine;   ///< Captured STATS reply, if any.
};

/// Reads exactly \p Want bytes (bounded by the socket timeout).
bool readExactly(Socket &S, std::string &Out, std::size_t Want) {
  char Buf[8192];
  while (Out.size() < Want) {
    std::size_t Chunk = std::min(sizeof(Buf), Want - Out.size());
    long N = S.readSome(Buf, Chunk);
    if (N <= 0)
      return false;
    Out.append(Buf, static_cast<std::size_t>(N));
  }
  return true;
}

/// Reads one '\n'-terminated line. Returns 1 on a line, 0 on orderly EOF
/// at a record boundary, -1 on a transport error, timeout, or EOF
/// mid-line (torn framing).
int readLineOr(Socket &S, std::string &Line) {
  Line.clear();
  char C;
  for (;;) {
    long N = S.readSome(&C, 1);
    if (N == 0)
      return Line.empty() ? 0 : -1;
    if (N < 0)
      return -1;
    if (C == '\n')
      return 1;
    Line.push_back(C);
  }
}

/// Extracts K from a `... seq=K ...` diagnostic record; false if absent.
bool parseSeqField(const std::string &Line, unsigned &Seq) {
  std::size_t At = Line.find("seq=");
  if (At == std::string::npos)
    return false;
  At += 4;
  Seq = 0;
  bool Any = false;
  while (At < Line.size() && Line[At] >= '0' && Line[At] <= '9') {
    Seq = Seq * 10 + static_cast<unsigned>(Line[At] - '0');
    ++At;
    Any = true;
  }
  return Any;
}

/// Whether the one-line STATS JSON carries \p Key at all. The hit-rate
/// fields are doubles, so presence is the contract the load generator
/// can check without a JSON parser.
bool statsHasField(const std::string &Json, const std::string &Key) {
  return Json.find("\"" + Key + "\":") != std::string::npos;
}

/// Pulls an integer field out of the one-line STATS JSON; -1 if absent.
long long statsField(const std::string &Json, const std::string &Key) {
  std::size_t At = Json.find("\"" + Key + "\":");
  if (At == std::string::npos)
    return -1;
  At += Key.size() + 3;
  long long V = 0;
  bool Any = false;
  while (At < Json.size() && Json[At] >= '0' && Json[At] <= '9') {
    V = V * 10 + (Json[At] - '0');
    ++At;
    Any = true;
  }
  return Any ? V : -1;
}

/// One attempt at a full send/validate cycle on a fresh connection.
ConnOutcome runAttempt(const LoadOptions &Opts, const ConnPlan &Plan,
                       unsigned ConnIdx) {
  ConnOutcome Out;
  Out.Retryable = true; // Transport-level failures below are transient.
  Expected<Socket> S =
      Socket::connectTo(Opts.Host, static_cast<std::uint16_t>(Opts.Port));
  if (!S) {
    Out.Detail = S.message();
    return Out;
  }
  S->setRecvTimeout(Opts.TimeoutMillis);

  if (!Plan.GrammarName.empty()) {
    // The multi-tenant handshake must precede BACKEND and the corpus.
    // The server answers errors only, so nothing to read here.
    if (!S->writeAll("GRAMMAR " + Plan.GrammarName + "\n")) {
      Out.Detail = "GRAMMAR handshake write failed";
      return Out;
    }
  }
  if (Opts.PickBackend) {
    std::string Handshake =
        std::string("BACKEND ") + backendName(Opts.Backend) + "\n";
    if (!S->writeAll(Handshake)) {
      Out.Detail = "handshake write failed";
      return Out;
    }
  }
  if (!S->writeAll(Plan.Wire)) {
    Out.Detail = "corpus write failed";
    return Out;
  }

  // Walk the response record by record until every block is accounted
  // for — delivered and byte-compared, or shed. A shed record for block
  // K is enqueued at read time and the per-connection output queue is
  // FIFO, so it always travels ahead of the assembly of any later block:
  // when assembly arrives, it belongs to the smallest unaccounted index.
  const std::size_t NumBlocks = Plan.Blocks.size();
  std::vector<bool> Shed(NumBlocks, false);
  std::size_t Next = 0; // Smallest block neither delivered nor shed.
  unsigned WatermarkShed = 0, DeadlineShed = 0;
  std::string Line;
  while (Next < NumBlocks) {
    int R = readLineOr(*S, Line);
    if (R == 0) {
      Out.Detail = "connection ended with block " + std::to_string(Next) +
                   " of " + std::to_string(NumBlocks) + " unaccounted";
      return Out; // Retryable: the server (or a fault) severed the stream.
    }
    if (R < 0) {
      Out.Detail = "transport error or timeout mid-stream";
      return Out;
    }
    Out.BytesIn += Line.size() + 1;
    if (startsWith(Line, "ERROR ")) {
      unsigned Seq = 0;
      bool HasSeq = parseSeqField(Line, Seq);
      bool IsShed = startsWith(Line, "ERROR ResourceExhausted:");
      bool IsDeadline = startsWith(Line, "ERROR DeadlineExceeded:");
      if (IsShed && !HasSeq) {
        // Accept-time refusal: the whole connection was turned away.
        Out.Detail = "admission shed: " + Line;
        return Out;
      }
      if ((IsShed || IsDeadline) && HasSeq) {
        if (!Plan.BlockAware) {
          // Corpus replay has no block map to skip against; only a
          // clean attempt can validate, so back off and retry.
          Out.Detail = "shed under corpus replay: " + Line;
          return Out;
        }
        if (Seq >= NumBlocks || Seq < Next || Shed[Seq]) {
          Out.Retryable = false;
          Out.Detail = "bogus shed record: " + Line;
          return Out;
        }
        Shed[Seq] = true;
        ++(IsShed ? WatermarkShed : DeadlineShed);
        while (Next < NumBlocks && Shed[Next])
          ++Next;
        continue;
      }
      Out.Retryable = false;
      Out.Detail = "server diagnostic: " + Line;
      return Out;
    }
    // The first line of block Next's assembly.
    const std::string &Ref = Plan.Blocks[Next];
    std::string Got = Line + "\n";
    std::size_t Before = Got.size();
    if (Got.size() > Ref.size() || Ref.compare(0, Got.size(), Got) != 0) {
      Out.Retryable = false;
      Out.Detail = "block " + std::to_string(Next) +
                   " diverges from reference in its first line (connection " +
                   std::to_string(ConnIdx) + ")";
      return Out;
    }
    bool Full = readExactly(*S, Got, Ref.size());
    Out.BytesIn += Got.size() - Before;
    if (!Full) {
      Out.Detail = "short block " + std::to_string(Next) + ": got " +
                   std::to_string(Got.size()) + " of " +
                   std::to_string(Ref.size()) + " bytes";
      return Out; // Retryable: torn mid-stream.
    }
    if (Got != Ref) {
      std::size_t At = 0;
      while (At < Got.size() && Got[At] == Ref[At])
        ++At;
      Out.Retryable = false;
      Out.Detail = "block " + std::to_string(Next) +
                   " diverges from reference at byte " + std::to_string(At) +
                   " (connection " + std::to_string(ConnIdx) + ")";
      return Out;
    }
    ++Next;
    while (Next < NumBlocks && Shed[Next])
      ++Next;
  }
  Out.ShedBlocks = WatermarkShed + DeadlineShed;

  if (Opts.Stats) {
    // Every block is accounted for, so the out-of-band STATS reply is
    // the only thing left on the wire — no interleaving hazard.
    if (!S->writeAll(std::string_view("STATS\n"))) {
      Out.Detail = "STATS write failed";
      return Out;
    }
    if (readLineOr(*S, Line) != 1) {
      Out.Detail = "no STATS reply";
      return Out;
    }
    Out.BytesIn += Line.size() + 1;
    if (!startsWith(Line, "STATS {")) {
      Out.Retryable = false;
      Out.Detail = "unexpected STATS reply: " + Line;
      return Out;
    }
    Out.StatsLine = Line;
    long long Submitted = statsField(Line, "connSubmitted");
    long long Delivered = statsField(Line, "connDelivered");
    // Every frame the server accepted must be delivered by now (this side
    // has read every block), and watermark sheds are the only gap between
    // sent and accepted — deadline-expired frames were accepted and
    // delivered as their error record.
    bool Dead =
        Plan.BlockAware
            ? Submitted != static_cast<long long>(NumBlocks - WatermarkShed) ||
                  Delivered != Submitted
            : Submitted <= 0 || Delivered != Submitted;
    if (Dead) {
      Out.Retryable = false;
      Out.Detail = "dead STATS counters: " + Line;
      return Out;
    }
    // The warm-path hit rates must always be present (l1HitRate and
    // denseHitRate read 0 since those tiers were retired).
    for (const char *Key : {"l1HitRate", "denseHitRate", "cacheHitRate"})
      if (!statsHasField(Line, Key)) {
        Out.Retryable = false;
        Out.Detail = std::string("STATS missing hit-rate field '") + Key +
                     "': " + Line;
        return Out;
      }
  }

  // Input done; expect orderly EOF, nothing extra on the wire.
  S->shutdownWrite();
  char C;
  long N = S->readSome(&C, 1);
  if (N != 0) {
    Out.Retryable = N < 0;
    Out.Detail = N > 0 ? std::string("unexpected trailing bytes")
                       : std::string("transport error at EOF");
    return Out;
  }
  if (Out.ShedBlocks && !Opts.AllowShed) {
    // The delivered subset matched, but the run demands full delivery —
    // only a clean attempt passes, so keep this retryable.
    Out.Detail = std::to_string(Out.ShedBlocks) + " of " +
                 std::to_string(NumBlocks) + " blocks shed";
    return Out;
  }
  Out.Ok = true;
  return Out;
}

/// Runs one connection to completion: up to 1 + Retries attempts, with
/// jittered exponential backoff between retryable failures
/// (deterministically seeded per connection index).
ConnOutcome runConnection(const LoadOptions &Opts, const ConnPlan &Plan,
                          unsigned ConnIdx) {
  RNG Jitter(0x6c6f6164ull * 2654435761ull + ConnIdx);
  ConnOutcome Out;
  for (unsigned Attempt = 0;; ++Attempt) {
    Out = runAttempt(Opts, Plan, ConnIdx);
    Out.Attempts = Attempt + 1;
    if (Out.Ok || !Out.Retryable || Attempt >= Opts.Retries)
      return Out;
    // ~50ms * 2^attempt, +/-50% jitter, capped so a deep retry ladder
    // stays within the same order as the server's recovery time.
    std::uint64_t Base =
        std::min<std::uint64_t>(50ull << std::min(Attempt, 5u), 1600);
    std::uint64_t Ms = Base / 2 + Jitter.nextBelow(Base + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
  }
}

} // namespace

int main(int Argc, char **Argv) {
  LoadOptions Opts;
  int ExitCode = 0;
  if (!parseArgs(Argc, Argv, Opts, ExitCode))
    return ExitCode;

  // Build every connection's plan up front: connect-time work should be
  // pure traffic, not corpus generation.
  std::vector<ConnPlan> Plans(Opts.Connections);
  if (!Opts.CorpusPath.empty()) {
    std::ostringstream Corpus, Reference;
    std::ifstream CIn(Opts.CorpusPath), RIn(Opts.ReferencePath);
    if (!CIn || !RIn) {
      std::fprintf(stderr, "error: cannot open %s\n",
                   (!CIn ? Opts.CorpusPath : Opts.ReferencePath).c_str());
      return 2;
    }
    Corpus << CIn.rdbuf();
    Reference << RIn.rdbuf();
    ConnPlan Shared;
    Shared.Wire = Corpus.str();
    // One opaque block: the whole reference, delivered shed-free or not
    // at all (BlockAware stays false — no per-function map to skip with).
    std::string Ref = Reference.str();
    if (!Ref.empty())
      Shared.Blocks.push_back(std::move(Ref));
    // Every connection must end its stream at a function boundary.
    if (!Shared.Wire.empty() && Shared.Wire.back() != '\n')
      Shared.Wire += '\n';
    for (ConnPlan &P : Plans)
      P = Shared;
  } else {
    // One target per distinct grammar name: connection I runs grammar
    // Grammars[I % N] (just --target without --grammars) and computes its
    // references against that grammar — cross-grammar bleed on the server
    // side becomes a byte mismatch here.
    std::vector<std::string> Names = Opts.Grammars;
    if (Names.empty())
      Names.push_back(Opts.Target);
    std::map<std::string, std::unique_ptr<Target>> Targets;
    for (const std::string &Name : Names) {
      if (Targets.count(Name))
        continue;
      Expected<std::unique_ptr<Target>> TOrErr = makeTarget(Name);
      if (!TOrErr) {
        std::fprintf(stderr, "error: %s: %s\n", Name.c_str(),
                     TOrErr.message().c_str());
        return 2;
      }
      Targets.emplace(Name, std::move(*TOrErr));
    }
    // Mirror the server's lane-grammar rule: the offline lane (and a
    // --fixed server) serves the stripped grammar.
    bool Fixed = Opts.ForceFixed ||
                 (Opts.PickBackend && Opts.Backend == BackendKind::Offline);
    for (unsigned I = 0; I < Opts.Connections; ++I) {
      const std::string &Name = Names[I % Names.size()];
      Target &T = *Targets.at(Name);
      const Grammar &G = Fixed ? T.Fixed : T.G;
      const DynCostTable *Dyn = Fixed ? nullptr : &T.Dyn;
      Expected<ConnPlan> P = makePlan(Opts, G, Dyn, I);
      if (!P) {
        std::fprintf(stderr, "error: %s\n", P.message().c_str());
        return 2;
      }
      Plans[I] = std::move(*P);
      if (!Opts.Grammars.empty())
        Plans[I].GrammarName = Name;
    }
  }

  Stopwatch Wall;
  std::vector<ConnOutcome> Outcomes(Opts.Connections);
  std::vector<std::thread> Threads;
  Threads.reserve(Opts.Connections);
  for (unsigned I = 0; I < Opts.Connections; ++I)
    Threads.emplace_back([&, I] { Outcomes[I] = runConnection(Opts, Plans[I], I); });
  for (std::thread &T : Threads)
    T.join();
  double Ms = static_cast<double>(Wall.elapsedNs()) / 1e6;

  unsigned Failed = 0;
  std::uint64_t Bytes = 0, Sheds = 0, Retries = 0;
  for (unsigned I = 0; I < Opts.Connections; ++I) {
    Bytes += Outcomes[I].BytesIn;
    Sheds += Outcomes[I].ShedBlocks;
    Retries += Outcomes[I].Attempts - 1;
    if (Opts.PrintStats && !Outcomes[I].StatsLine.empty())
      std::printf("%s\n", Outcomes[I].StatsLine.c_str());
    if (!Outcomes[I].Ok) {
      ++Failed;
      std::fprintf(stderr, "odburg-load: connection %u FAILED (%u attempt%s, "
                           "%s): %s\n",
                   I, Outcomes[I].Attempts, Outcomes[I].Attempts == 1 ? "" : "s",
                   Outcomes[I].Retryable ? "retryable" : "hard",
                   Outcomes[I].Detail.c_str());
    }
  }
  std::fprintf(stderr,
               "odburg-load: %u connections%s — %u ok, %u failed, %llu "
               "bytes validated, %llu blocks shed, %llu retries in %.1f ms\n",
               Opts.Connections,
               Opts.PickBackend
                   ? (std::string(" (backend ") + backendName(Opts.Backend) +
                      ")")
                         .c_str()
                   : "",
               Opts.Connections - Failed, Failed,
               static_cast<unsigned long long>(Bytes),
               static_cast<unsigned long long>(Sheds),
               static_cast<unsigned long long>(Retries), Ms);
  return Failed ? 1 : 0;
}

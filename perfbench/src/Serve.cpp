//===- perfbench/src/Serve.cpp - serve_x86: odburg-serve over loopback ----===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving workload. odburg-serve runs as a child process
/// (--listen=0 --port-file=... --threads=2, default lane, no handshake);
/// this process is the client, with two connections driven by one thread
/// each, so client and server fit in four processors. Every assembly byte
/// that comes back is checked against the dp reference as it arrives.
///
/// Set-up and first pass are sampled over several server spawns. Then, in
/// rounds spread over the run: a closed-loop corpus pass (throughput) and
/// an open loop at a fixed offered rate (latency, timed from each frame's
/// scheduled send to the last byte of its assembly block, so a stall
/// charges the frames queued behind it). Last, a fixed ladder of offered
/// rates finds the highest one that meets the latency limit.
///
//===----------------------------------------------------------------------===//

#include "Host.h"
#include "Stats.h"
#include "Workloads.h"

#include "pipeline/CompileService.h"
#include "select/LabelerBackend.h"
#include "support/Timer.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace odburg;

namespace perfbench {

namespace {

constexpr unsigned ServerThreads = 2;
constexpr unsigned Connections = 2;
/// Frames in flight per connection in the closed-loop passes.
constexpr std::size_t Window = 8;
/// The latency limit on p99 that a ladder rate must meet.
constexpr double LatencyLimitMs = 5.0;
/// Offered rate of the latency phase, functions/s: about half the
/// capacity of a 2-worker server on a 4-vCPU x86-64 machine, whose median
/// max_rate_fn_s reads 21.8k-24.1k (README.md, Readings). Fixed, so a
/// faster server shows as lower latency at the same load.
constexpr double FixedRate = 10000;
/// The rate ladder: rung k offers LadderBase * LadderStep^k functions/s,
/// fixed in absolute terms, 5% apart.
constexpr double LadderBase = 2000;
constexpr double LadderStep = 1.05;
constexpr int LadderRungs = 60;

double rung(int K) { return LadderBase * std::pow(LadderStep, K); }

/// The odburg-serve child. The destructor stops it (SIGTERM, then SIGKILL
/// if it does not exit) and reaps it, on every path.
class Server {
public:
  static std::unique_ptr<Server> spawn(const RunConfig &C, unsigned Index,
                                       std::string &Err);
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;
  ~Server() { stop(); }

  /// SIGTERM, wait (bounded), SIGKILL if needed; idempotent.
  void stop();
  pid_t pid() const { return Pid; }
  std::uint16_t port() const { return Port; }

private:
  Server() = default;
  pid_t Pid = -1;
  std::uint16_t Port = 0;
};

bool waitExit(pid_t Pid, double Seconds) {
  std::uint64_t Until = nowNs() + static_cast<std::uint64_t>(Seconds * 1e9);
  for (;;) {
    int Status = 0;
    pid_t R = waitpid(Pid, &Status, WNOHANG);
    if (R == Pid || (R < 0 && errno != EINTR))
      return true;
    if (nowNs() > Until)
      return false;
    usleep(1000);
  }
}

void Server::stop() {
  if (Pid <= 0)
    return;
  kill(Pid, SIGTERM);
  if (!waitExit(Pid, 15.0)) {
    kill(Pid, SIGKILL);
    waitExit(Pid, 15.0);
  }
  Pid = -1;
}

std::unique_ptr<Server> Server::spawn(const RunConfig &C, unsigned Index,
                                      std::string &Err) {
  std::string PortFile = C.WorkDir + "/serve-" + std::to_string(getpid()) +
                         "-" + std::to_string(Index) + ".port";
  std::string Log = C.WorkDir + "/serve.log";
  std::remove(PortFile.c_str());
  std::string PortArg = "--port-file=" + PortFile;
  std::string ThreadsArg = "--threads=" + std::to_string(ServerThreads);
  const char *Argv[] = {C.ServeBin.c_str(), "--listen=0", PortArg.c_str(),
                        ThreadsArg.c_str(), nullptr};
  posix_spawn_file_actions_t Fa;
  posix_spawn_file_actions_init(&Fa);
  posix_spawn_file_actions_addopen(&Fa, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&Fa, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&Fa, 2, Log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::unique_ptr<Server> S(new Server());
  int Rc = posix_spawn(&S->Pid, C.ServeBin.c_str(), &Fa, nullptr,
                       const_cast<char *const *>(Argv), environ);
  posix_spawn_file_actions_destroy(&Fa);
  if (Rc != 0) {
    S->Pid = -1;
    Err = "cannot start " + C.ServeBin + ": " + std::strerror(Rc);
    return nullptr;
  }
  std::uint64_t Until = nowNs() + 20'000'000'000ULL;
  for (;;) {
    std::ifstream In(PortFile);
    unsigned Port = 0;
    if (In >> Port && Port > 0 && Port < 65536) {
      S->Port = static_cast<std::uint16_t>(Port);
      std::remove(PortFile.c_str());
      return S;
    }
    int Status = 0;
    if (waitpid(S->Pid, &Status, WNOHANG) == S->Pid) {
      S->Pid = -1;
      Err = "odburg-serve exited before listening (see " + Log + ")";
      return nullptr;
    }
    if (nowNs() > Until) {
      Err = "odburg-serve did not write its port file";
      return nullptr;
    }
    usleep(200);
  }
}

/// One client connection and its response checker, kept across phases.
struct Conn {
  int Fd = -1;
  ResponseChecker Check;
  /// Frames sent on this connection so far: the server's per-connection
  /// seq of the next frame.
  std::size_t NextFrame = 0;

  Conn() = default;
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;
  ~Conn() {
    if (Fd >= 0)
      close(Fd);
  }
};

bool connectTo(Conn &C, std::uint16_t Port) {
  C.Fd = socket(AF_INET, SOCK_STREAM, 0);
  if (C.Fd < 0)
    return false;
  sockaddr_in A{};
  A.sin_family = AF_INET;
  A.sin_port = htons(Port);
  A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(C.Fd, reinterpret_cast<sockaddr *>(&A), sizeof A) != 0)
    return false;
  int One = 1;
  setsockopt(C.Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
  return fcntl(C.Fd, F_SETFL, fcntl(C.Fd, F_GETFL) | O_NONBLOCK) == 0;
}

/// What one connection sends in one phase.
struct Plan {
  /// Corpus indices, in send order.
  std::vector<std::size_t> Fns;
  /// Open loop: frame j is due at Start + j * IntervalNs. Closed loop
  /// (IntervalNs == 0): a frame is due when fewer than Window are in
  /// flight.
  std::uint64_t StartNs = 0;
  double IntervalNs = 0;
  /// Frames still pending then fail (timed out).
  std::uint64_t GiveUpNs = 0;
  /// Ask for a STATS line once every frame is answered.
  bool Stats = false;
  Trace *T = nullptr;
};

struct Outcome {
  /// Due -> last byte of the block, microseconds, for frames that matched.
  std::vector<double> LatencyUs;
  /// Time the frame was queued for sending - due time, microseconds
  /// (open loop).
  std::vector<double> LagUs;
  std::uint64_t Sent = 0;
  std::uint64_t Failed = 0;
  std::uint64_t LastDoneNs = 0;
  /// Frames in flight when the last frame came due.
  std::size_t BacklogAtEnd = 0;
  std::string Stats;
  bool Broken = false;
};

struct Corpus {
  const Inputs *In;
  const std::vector<Reference> *Refs;
  std::vector<std::string> Wire;
};

/// Runs one phase on one connection; see Plan.
Outcome runPlan(Conn &C, const Plan &P, const Corpus &K) {
  Outcome O;
  const std::size_t N = P.Fns.size();
  const std::size_t Base = C.NextFrame;
  std::vector<std::uint64_t> Due(N, 0);
  std::vector<std::uint64_t> Start(N, 0); // Stream offset of each frame.
  std::vector<std::uint32_t> Span(N, 0);
  std::string Out;
  std::size_t OutPos = 0;
  std::uint64_t Queued = 0, Flushed = 0;
  std::size_t Next = 0, SentIdx = 0, Done = 0;
  std::vector<std::pair<std::size_t, bool>> Finished;
  char Buf[1 << 16];
  bool StatsSent = false;

  auto Complete = [&](std::uint64_t Now) {
    for (auto [Id, Ok] : Finished) {
      std::size_t J = Id - Base;
      if (J >= N)
        continue;
      ++Done;
      if (Ok) {
        O.LatencyUs.push_back(static_cast<double>(Now - Due[J]) / 1e3);
        O.LastDoneNs = Now;
      } else {
        ++O.Failed;
      }
      if (P.T)
        P.T->close(Span[J], Now);
    }
    Finished.clear();
  };

  for (;;) {
    std::uint64_t Now = nowNs();
    bool FramesDone = Done == N;
    if (FramesDone && (!P.Stats || !C.Check.stats().empty()))
      break;
    if (Now > P.GiveUpNs || C.Check.broken()) {
      C.Check.failPending(Finished);
      Complete(Now);
      O.Failed += N - Next; // Never sent.
      O.Broken = true;
      break;
    }
    if (FramesDone && !StatsSent) {
      Out.append("STATS\n");
      Queued += 6;
      StatsSent = true;
    }
    // Queue every frame that is due.
    while (Next < N) {
      std::uint64_t D =
          P.IntervalNs > 0
              ? P.StartNs + static_cast<std::uint64_t>(
                                static_cast<double>(Next) * P.IntervalNs)
              : Now;
      if (P.IntervalNs > 0 ? D > Now : Next - Done >= Window)
        break;
      std::size_t Fn = P.Fns[Next];
      Due[Next] = D;
      // How late the generator itself queued the frame; a full socket
      // (the server's backpressure) shows in the latency, not here.
      if (P.IntervalNs > 0)
        O.LagUs.push_back(static_cast<double>(Now - D) / 1e3);
      Start[Next] = Queued;
      if (P.T)
        Span[Next] = P.T->open("request", Base + Next, 0, D);
      C.Check.expect(Base + Next, &(*K.Refs)[Fn].Asm);
      Out.append(K.Wire[Fn]);
      Queued += K.Wire[Fn].size();
      if (++Next == N)
        O.BacklogAtEnd = Next - Done;
    }
    // Write what the socket takes.
    if (OutPos < Out.size()) {
      std::uint64_t T0 = nowNs();
      ssize_t W = send(C.Fd, Out.data() + OutPos, Out.size() - OutPos,
                       MSG_NOSIGNAL);
      std::uint64_t T1 = nowNs();
      if (W > 0) {
        OutPos += static_cast<std::size_t>(W);
        Flushed += static_cast<std::uint64_t>(W);
        for (; SentIdx < Next && Start[SentIdx] < Flushed; ++SentIdx)
          if (P.T)
            P.T->record("send", Base + SentIdx, Span[SentIdx], T0, T1);
        if (OutPos == Out.size()) {
          Out.clear();
          OutPos = 0;
        }
      } else if (W < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        C.Check.failPending(Finished);
        O.Broken = true;
      }
    }
    // Wait for a reply, the socket to drain, or the next due frame.
    std::uint64_t WakeNs = std::min<std::uint64_t>(P.GiveUpNs, Now + 50'000'000);
    if (P.IntervalNs > 0 && Next < N)
      WakeNs = std::min<std::uint64_t>(
          WakeNs, P.StartNs + static_cast<std::uint64_t>(
                                  static_cast<double>(Next) * P.IntervalNs));
    pollfd Pfd{C.Fd, static_cast<short>(POLLIN | (OutPos < Out.size() ? POLLOUT : 0)),
               0};
    std::uint64_t WaitNs = WakeNs > Now ? WakeNs - Now : 0;
    timespec Ts{static_cast<time_t>(WaitNs / 1'000'000'000),
                static_cast<long>(WaitNs % 1'000'000'000)};
    if (ppoll(&Pfd, 1, &Ts, nullptr) <= 0 || !(Pfd.revents & (POLLIN | POLLHUP | POLLERR)))
      continue;
    std::uint64_t T0 = nowNs();
    ssize_t R = recv(C.Fd, Buf, sizeof Buf, 0);
    std::uint64_t T1 = nowNs();
    if (R > 0) {
      std::size_t Before = Finished.size();
      C.Check.feed(std::string_view(Buf, static_cast<std::size_t>(R)),
                   Finished);
      if (P.T && Finished.size() > Before) {
        std::size_t J = Finished[Before].first - Base;
        P.T->record("recv", Finished[Before].first, J < N ? Span[J] : 0, T0,
                    T1);
      }
      Complete(T1);
    } else if (R == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                          errno != EINTR)) {
      C.Check.failPending(Finished);
      Complete(T1);
      O.Failed += N - Next;
      O.Broken = true;
      break;
    }
  }
  C.NextFrame = Base + Next;
  O.Sent = Next;
  O.Stats = C.Check.stats();
  return O;
}

/// Runs one phase on every connection, one thread each. \p Rate > 0 makes
/// it an open loop at \p Rate functions/s in total (connections offset by
/// one interval, so arrivals are evenly spaced); otherwise a closed loop.
/// \p Frames frames in total, taken round-robin from the corpus starting
/// at \p *Cursor, which advances.
std::vector<Outcome> runPhase(std::vector<std::unique_ptr<Conn>> &Conns,
                              const Corpus &K, std::size_t Frames,
                              std::size_t &Cursor, double Rate,
                              double GraceSeconds, bool Stats, Trace *T) {
  std::vector<Plan> Plans(Conns.size());
  std::uint64_t Start = nowNs() + 2'000'000;
  double Interval = Rate > 0 ? 1e9 * Conns.size() / Rate : 0;
  std::size_t NFns = K.In->Corpus.size();
  for (std::size_t I = 0; I < Frames; ++I)
    Plans[I % Conns.size()].Fns.push_back((Cursor + I) % NFns);
  Cursor = (Cursor + Frames) % NFns;
  double Span = Rate > 0 ? static_cast<double>(Frames) / Rate : 0;
  for (std::size_t C = 0; C < Conns.size(); ++C) {
    Plan &P = Plans[C];
    P.StartNs = Start + static_cast<std::uint64_t>(Interval / Conns.size() * C);
    P.IntervalNs = Interval;
    P.GiveUpNs = Start + static_cast<std::uint64_t>((Span + GraceSeconds) * 1e9);
    P.Stats = Stats && C == 0;
    P.T = T;
  }
  std::vector<Outcome> Out(Conns.size());
  std::vector<std::thread> Threads;
  for (std::size_t C = 0; C < Conns.size(); ++C)
    Threads.emplace_back(
        [&, C] { Out[C] = runPlan(*Conns[C], Plans[C], K); });
  for (std::thread &Th : Threads)
    Th.join();
  return Out;
}

/// The phase's totals over all connections.
struct PhaseTotals {
  std::vector<double> LatencyUs, LagUs;
  /// Windowed latency percentiles, per connection (see windowPercentiles).
  std::vector<double> WindowP50, WindowP99;
  std::uint64_t Sent = 0, Failed = 0, LastDoneNs = 0;
  std::size_t Backlog = 0;
  bool Broken = false;
  std::string Stats;
};

PhaseTotals total(const std::vector<Outcome> &Os) {
  PhaseTotals T;
  for (const Outcome &O : Os) {
    T.LatencyUs.insert(T.LatencyUs.end(), O.LatencyUs.begin(),
                       O.LatencyUs.end());
    for (double V : windowPercentiles(O.LatencyUs, 50))
      T.WindowP50.push_back(V);
    for (double V : windowPercentiles(O.LatencyUs, 99))
      T.WindowP99.push_back(V);
    T.LagUs.insert(T.LagUs.end(), O.LagUs.begin(), O.LagUs.end());
    T.Sent += O.Sent;
    T.Failed += O.Failed;
    T.LastDoneNs = std::max(T.LastDoneNs, O.LastDoneNs);
    T.Backlog += O.BacklogAtEnd;
    T.Broken |= O.Broken;
    if (!O.Stats.empty())
      T.Stats = O.Stats;
  }
  return T;
}

/// A number field of the STATS JSON object; -1 if absent.
double statsField(const std::string &Json, const char *Key) {
  std::string Pat = std::string("\"") + Key + "\":";
  std::size_t At = Json.find(Pat);
  return At == std::string::npos
             ? -1.0
             : std::strtod(Json.c_str() + At + Pat.size(), nullptr);
}

bool connectAll(std::vector<std::unique_ptr<Conn>> &Conns,
                std::uint16_t Port) {
  Conns.clear();
  for (unsigned I = 0; I < Connections; ++I) {
    Conns.push_back(std::make_unique<Conn>());
    if (!connectTo(*Conns.back(), Port))
      return false;
  }
  return true;
}

double stealShare(double Steal0, std::uint64_t Wall0) {
  double Wall = static_cast<double>(nowNs() - Wall0) / 1e9;
  return (stealSeconds() - Steal0) / (Wall * processorCount());
}

/// Median of the samples taken in the cleanest half by steal.
double cleanMedian(const std::vector<double> &V,
                   const std::vector<double> &Steal) {
  std::vector<double> Kept;
  for (std::size_t I : cleanestHalf(Steal))
    Kept.push_back(V[I]);
  return median(Kept);
}

} // namespace

RunResult runServe(const RunConfig &C) {
  RunResult R;
  double Load0 = loadAverage1();
  Expected<Inputs> InE = makeInputs(C.Kind, C.Seed, C.Smoke);
  if (!InE) {
    R.Error = "input generation failed: " + InE.message();
    return R;
  }
  Inputs &In = *InE;
  const Grammar &G = In.G.grammar();
  const DynCostTable *Dyn = In.G.dyn();
  Expected<std::vector<Reference>> RefsE = computeReference(G, Dyn, In.Corpus);
  Expected<std::vector<Reference>> SampleRefs =
      computeReference(G, Dyn, In.OracleSample);
  if (!RefsE || !SampleRefs) {
    R.Error = "dp reference failed: " +
              (RefsE ? SampleRefs.message() : RefsE.message());
    return R;
  }
  {
    // The server's answers are checked against dp bytes; the oracle
    // checks dp and the server's backend (on-demand) for optimal cost.
    std::vector<Cost> DpCosts, OdCosts;
    Expected<std::unique_ptr<LabelerBackend>> B =
        LabelerBackend::create(BackendKind::OnDemand, G, Dyn);
    if (!B) {
      R.Error = "backend creation failed: " + B.message();
      return R;
    }
    LabelerScratch Scratch;
    for (std::size_t I = 0; I < In.OracleSample.size(); ++I) {
      DpCosts.push_back((*SampleRefs)[I].Total);
      Expected<Selection> S =
          reduce(G, In.OracleSample[I],
                 (*B)->labelFunction(In.OracleSample[I], Scratch), Dyn);
      OdCosts.push_back(S ? S->TotalCost : Cost::infinity());
    }
    unsigned Bad = oracleMismatches(G, Dyn, In.OracleSample, DpCosts) +
                   oracleMismatches(G, Dyn, In.OracleSample, OdCosts);
    if (Bad) {
      std::fprintf(stderr, "oracle check: %u cost mismatches\n", Bad);
      R.Correct = false;
    }
  }
  Corpus K{&In, &*RefsE, {}};
  for (const ir::IRFunction &F : In.Corpus)
    K.Wire.push_back(toWire(F, G));
  recordWork(R, In, *RefsE);
  const std::size_t NFns = In.Corpus.size();

  std::uint64_t Attempted = 0, Failed = 0;
  bool Broken = false;
  auto Account = [&](const PhaseTotals &T) {
    Attempted += T.Sent;
    Failed += T.Failed;
    Broken |= T.Broken;
  };

  // A fresh server: set-up (spawn until the port file appears), then its
  // first corpus pass, closed loop, on fresh connections.
  std::vector<double> Setup, First, FirstSteal;
  unsigned Spawned = 0;
  auto Fresh = [&](std::vector<std::unique_ptr<Conn>> &Cs,
                   std::string &Err) -> std::unique_ptr<Server> {
    std::uint64_t T0 = nowNs();
    std::unique_ptr<Server> S = Server::spawn(C, Spawned++, Err);
    if (!S)
      return nullptr;
    Setup.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    if (!connectAll(Cs, S->port())) {
      Err = "cannot connect to odburg-serve";
      return nullptr;
    }
    double Steal0 = stealSeconds();
    std::uint64_t F0 = nowNs();
    std::size_t From = 0;
    PhaseTotals T = total(runPhase(Cs, K, NFns, From, 0, 30, false, nullptr));
    Account(T);
    // No sample when no frame completed: the failures are in T.
    if (T.LastDoneNs > F0) {
      First.push_back(static_cast<double>(T.LastDoneNs - F0) / 1e9);
      FirstSteal.push_back(stealShare(Steal0, F0));
    }
    return S;
  };
  std::string Err;
  std::vector<std::unique_ptr<Conn>> Conns;
  std::unique_ptr<Server> Srv = Fresh(Conns, Err);
  if (!Srv) {
    R.Error = Err;
    return R;
  }
  std::size_t Cursor = 0;

  // Rounds spread every sample over the run: a fresh server's set-up and
  // first pass, closed-loop passes for throughput, then the fixed-rate open
  // loop for latency (and its traced twin in a traced run).
  const unsigned Rounds = C.Smoke ? 2 : 16;
  const unsigned ThroughputPasses = C.Smoke ? 1 : 4;
  const double LatencySeconds = C.Seconds * 0.4 / Rounds / (C.Trace ? 2 : 1);
  const std::size_t LatencyFrames = std::max<std::size_t>(
      static_cast<std::size_t>(FixedRate * LatencySeconds),
      WindowSamples * Connections);
  Trace Tr(C.Trace, 1u << 21);
  std::vector<double> Tput, TputSteal, LatSteal;
  std::vector<PhaseTotals> LatSlices, TracedSlices;
  std::vector<std::vector<double>> LagSlices;
  double ServerCpu = 0, LatencyWall = 0;
  // Round 0 warms up and is not reported: on a machine that has just
  // started the run, every sample of the first round reads slow.
  for (unsigned Round = 0; Round <= Rounds; ++Round) {
    if (Round == 1) {
      First.clear();
      FirstSteal.clear();
      Tput.clear();
      TputSteal.clear();
      LatSteal.clear();
      LatSlices.clear();
      TracedSlices.clear();
      LagSlices.clear();
      ServerCpu = LatencyWall = 0;
    }
    {
      // Declared first, so the connections close before the server stops
      // (a draining server waits for its clients).
      std::unique_ptr<Server> S;
      std::vector<std::unique_ptr<Conn>> FreshConns;
      S = Fresh(FreshConns, Err);
      if (!S) {
        R.Error = Err;
        return R;
      }
    }
    double Steal0 = stealSeconds();
    std::uint64_t T0 = nowNs();
    PhaseTotals T = total(
        runPhase(Conns, K, ThroughputPasses * NFns, Cursor, 0, 30, false, nullptr));
    Account(T);
    if (T.LastDoneNs > T0) {
      Tput.push_back(ThroughputPasses * static_cast<double>(In.Nodes) /
                     (static_cast<double>(T.LastDoneNs - T0) / 1e9) / 1e3);
      TputSteal.push_back(stealShare(Steal0, T0));
    }

    Steal0 = stealSeconds();
    T0 = nowNs();
    double Cpu0 = cpuSeconds(Srv->pid());
    PhaseTotals L = total(
        runPhase(Conns, K, LatencyFrames, Cursor, FixedRate, 10, false, nullptr));
    Account(L);
    ServerCpu += cpuSeconds(Srv->pid()) - Cpu0;
    LatencyWall += static_cast<double>(nowNs() - T0) / 1e9;
    LatSteal.push_back(stealShare(Steal0, T0));
    LagSlices.push_back(L.LagUs);
    LatSlices.push_back(std::move(L));
    if (C.Trace) {
      PhaseTotals TL = total(
          runPhase(Conns, K, LatencyFrames, Cursor, FixedRate, 10, false, &Tr));
      Account(TL);
      TracedSlices.push_back(std::move(TL));
    }
  }
  // Latency percentiles per window over the cleanest half of the slices:
  // the median of the windowed p50s, the lower quartile of the p99s (a
  // stall that hits fewer than three quarters of the windows does not
  // move it; the plain p99 of the same slices is reported beside it, as
  // serve.pooled_p99_ms, without a bound). A slice in which the
  // generator itself ran late (lag p99 over the limit) offered less load
  // than it claims, so it ranks below every slice where the generator kept
  // up; among those, less steal ranks cleaner.
  std::vector<double> Noise;
  std::size_t LateSlices = 0;
  for (std::size_t I = 0; I < LatSlices.size(); ++I) {
    Percentile Q = percentile(LagSlices[I], 99);
    bool Late = !Q.Valid || Q.Value > LatencyLimitMs * 1e3;
    LateSlices += Late;
    Noise.push_back(LatSteal[I] + (Late ? 1.0 : 0.0));
  }
  std::vector<double> P50s, P99s, TracedP50s, Lag, Pooled;
  std::size_t LatencySamples = 0;
  std::string Invalid;
  for (std::size_t I : cleanestHalf(Noise)) {
    const PhaseTotals &L = LatSlices[I];
    if (L.WindowP99.empty())
      Invalid = "a latency slice with " + std::to_string(L.LatencyUs.size()) +
                " samples";
    P50s.insert(P50s.end(), L.WindowP50.begin(), L.WindowP50.end());
    P99s.insert(P99s.end(), L.WindowP99.begin(), L.WindowP99.end());
    LatencySamples += L.LatencyUs.size();
    Pooled.insert(Pooled.end(), L.LatencyUs.begin(), L.LatencyUs.end());
    Lag.insert(Lag.end(), LagSlices[I].begin(), LagSlices[I].end());
    if (C.Trace)
      TracedP50s.insert(TracedP50s.end(), TracedSlices[I].WindowP50.begin(),
                        TracedSlices[I].WindowP50.end());
  }
  double P50 = median(P50s), P99 = lowerQuartile(P99s);
  Percentile PooledP99 = percentile(Pooled, 99);
  Percentile Lag99 = percentile(Lag, 99);

  // The server's own view of the fixed-rate phase: one more untraced
  // slice that fills the STATS latency window, then the STATS request.
  Account(total(runPhase(Conns, K, pipeline::CompileService::LatencyWindow + 100,
                         Cursor, FixedRate, 10, false, nullptr)));
  PhaseTotals St = total(runPhase(Conns, K, 0, Cursor, 0, 10, true, nullptr));
  std::string Stats = St.Stats;

  // The ladder: bisect for the highest rung that meets the limit. A try
  // passes when every frame is correct, the windowed p99 (median over its
  // windows) is within the limit, and no backlog is left growing when its
  // schedule ends. A rung passes on its first passing try and fails after
  // three failing tries: the shared machine's noise only ever slows a try
  // down, so the best of three tracks the rate the server sustains, while
  // a rate beyond it leaves a backlog on every try. A try that fails while
  // the hypervisor steals over 2% of the machine does not count; it is
  // repeated, at most StolenTries times in the whole ladder.
  const double RungSeconds = C.Smoke ? 0.2 : C.Seconds / 30;
  unsigned StolenTries = 12;
  auto Passes = [&](double Rate) {
    for (unsigned Failures = 0; Failures < 3;) {
      // At least one percentile window per connection.
      std::size_t Frames = std::max<std::size_t>(
          static_cast<std::size_t>(Rate * RungSeconds),
          WindowSamples * Connections);
      double Steal0 = stealSeconds();
      std::uint64_t T0 = nowNs();
      PhaseTotals T =
          total(runPhase(Conns, K, Frames, Cursor, Rate, 20, false, nullptr));
      Account(T);
      double Steal = stealShare(Steal0, T0);
      double P99 = T.WindowP99.empty() ? INFINITY : median(T.WindowP99);
      std::printf("ladder %.0f fn/s: windowed p99=%.4g us (%zu windows), "
                  "backlog %zu, failed %llu, steal %.3f\n",
                  Rate, P99, T.WindowP99.size(), T.Backlog,
                  static_cast<unsigned long long>(T.Failed), Steal);
      std::size_t MaxBacklog = std::max<std::size_t>(
          16, static_cast<std::size_t>(Rate * LatencyLimitMs / 1e3 * 2));
      if (T.Failed == 0 && P99 <= LatencyLimitMs * 1e3 &&
          T.Backlog <= MaxBacklog)
        return true;
      if (Steal > 0.02 && StolenTries > 0)
        --StolenTries;
      else
        ++Failures;
    }
    return false;
  };
  int Lo = -1, Hi = LadderRungs;
  while (Hi - Lo > 1) {
    int Mid = (Lo + Hi) / 2;
    (Passes(rung(Mid)) ? Lo : Hi) = Mid;
  }
  double MaxRate = Lo >= 0 ? rung(Lo) : rung(0) / 2;

  R.set("peak_rss_mb", peakRssMb(Srv->pid()), "MB");
  Conns.clear();
  Srv->stop();

  std::printf("setup_s samples:");
  for (double V : Setup)
    std::printf(" %.4g", V);
  std::printf("\nfirst_pass_s samples:");
  for (double V : First)
    std::printf(" %.4g", V);
  std::printf("\nthroughput samples:");
  for (double V : Tput)
    std::printf(" %.4g", V);
  std::printf("\nlatency steal:");
  for (double V : LatSteal)
    std::printf(" %.3g", V);
  std::printf("\nlatency p99 per kept slice:");
  for (double V : P99s)
    std::printf(" %.4g", V);
  std::printf("\nserve: latency p50=%.4g p99=%.4g us (n=%zu), pooled %s us, "
              "generator lag %s\n",
              P50, P99, LatencySamples, describe(PooledP99, 99).c_str(),
              describe(Lag99, 99).c_str());
  if (!Invalid.empty() || !Lag99.Valid) {
    R.Error = "too few latency samples: " +
              (Invalid.empty() ? describe(Lag99, 99) : Invalid);
    return R;
  }
  if (Stats.empty()) {
    R.Error = "no STATS reply from odburg-serve";
    return R;
  }
  // The run is invalid when the generator ran late in most slices: then
  // even the reported half measured a lower load than it claims.
  if (LateSlices > LatSlices.size() / 2) {
    std::fprintf(stderr,
                 "invalid run: generator lag p99 over the %g ms limit in %zu "
                 "of %zu latency slices\n",
                 LatencyLimitMs, LateSlices, LatSlices.size());
    R.Correct = false;
  }

  R.set("setup_s", median(Setup), "s");
  R.set("first_pass_s", cleanMedian(First, FirstSteal), "s");
  R.set("throughput_knodes_s", cleanMedian(Tput, TputSteal), "knodes/s");
  R.set("latency_ms_p50", P50 / 1e3, "ms");
  R.set("latency_ms_p99", P99 / 1e3, "ms");
  R.set("max_rate_fn_s", MaxRate, "fn/s");
  R.set("serve.latency_samples", static_cast<double>(LatencySamples), "count");
  R.set("serve.generator_lag_ms_p99", Lag99.Value / 1e3, "ms");
  R.set("serve.pooled_p99_ms", PooledP99.Value / 1e3, "ms");
  R.set("serve.server_us_p50", statsField(Stats, "p50Us"), "us");
  R.set("serve.server_us_p99", statsField(Stats, "p99Us"), "us");
  R.set("serve.overhead_us_p50", P50 - statsField(Stats, "p50Us"), "us");
  R.set("serve.shed", statsField(Stats, "shedSubmits"), "count");
  R.set("core.l1_hit_rate", statsField(Stats, "l1HitRate"), "fraction");
  R.set("core.dense_hit_rate", statsField(Stats, "denseHitRate"), "fraction");
  R.set("core.l2_hit_rate", statsField(Stats, "cacheHitRate"), "fraction");
  R.set("pipeline.cores_busy", ServerCpu / LatencyWall, "cores");
  R.set("host.steal_frac", median(LatSteal), "fraction");

  if (C.Trace) {
    R.set("trace.overhead_frac", (median(TracedP50s) - P50) / P50, "fraction");
    Decomposition D = decompose(In, *RefsE, false, Tr, 2);
    Failed += D.Failed;
    Attempted += NFns * 3;
    R.set("core.label_ns_per_node", D.LabelNsPerNode, "ns");
    R.set("core.first_label_ns_per_node", D.FirstLabelNsPerNode, "ns");
    R.set("select.reduce_ns_per_node", D.ReduceNsPerNode, "ns");
    R.set("targets.emit_ns_per_byte", D.EmitNsPerByte, "ns");
    R.set("targets.emit_share", D.EmitShare, "fraction");
    R.set("ir.parse_ns_per_byte", D.ParseNsPerByte, "ns");
    R.set("trace.spans", static_cast<double>(Tr.size()), "count");
    std::printf("trace: %zu spans, %zu dropped\n", Tr.size(), Tr.dropped());
    if (Tr.dropped()) {
      R.Error = "trace buffer full: " + std::to_string(Tr.dropped()) +
                " spans dropped";
      return R;
    }
    Tr.writeCsv(C.WorkDir + "/spans-serve_x86-" + std::to_string(C.Seed) +
                ".csv");
  }
  R.set("host.load1_before", Load0, "load");
  R.set("host.load1_after", loadAverage1(), "load");
  R.Attempted = Attempted;
  R.Failed = Failed;
  R.set("ok_frac",
        static_cast<double>(Attempted - Failed) / static_cast<double>(Attempted),
        "fraction");
  if (Failed || Broken)
    R.Correct = false;
  return R;
}

} // namespace perfbench

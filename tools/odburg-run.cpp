//===- tools/odburg-run.cpp - Batch compile-pipeline driver ---------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch compilation driver: pick a target grammar, a labeling
/// backend, and one or more synthetic workload profiles, generate a corpus
/// of IR functions, and compile it end-to-end (label + reduce + emit)
/// through a CompileService with a configurable number of worker threads.
/// Reports end-to-end throughput, the per-phase time split, cache
/// behavior (offline-partition hits and transition-cache hits), and a
/// bit-identity check of the concatenated assembly across thread counts
/// and across backends on the same grammar.
///
/// This is the paper's three-way comparison as one CLI: --backend picks
/// iburg-style DP labeling, burg-style offline tables, the on-demand
/// automaton (default), or the hybrid (offline tables on the grammar's
/// static partition, on-demand for the dyn-cost remainder), and
/// --backend=all runs all four on the target's fixed-cost grammar — the
/// only grammar pure offline tables can encode — so the rows are
/// directly comparable.
///
///   odburg-run --target=x86 --profile=gcc-like --functions=64 --threads=1,4
///   odburg-run --backend=all --target=x86
///
//===----------------------------------------------------------------------===//

#include "ir/Node.h"
#include "pipeline/CompileService.h"
#include "support/Hashing.h"
#include "support/StringUtil.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
#include "targets/Target.h"
#include "workload/Synthetic.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace odburg;
using namespace odburg::pipeline;
using namespace odburg::targets;
using namespace odburg::workload;

namespace {

struct DriverOptions {
  std::vector<std::string> Targets = {"x86"};
  std::vector<std::string> Profiles = {"gzip-like"};
  std::vector<BackendKind> Backends = {BackendKind::OnDemand};
  unsigned Functions = 32;
  unsigned NodesPerFunction = 2000;
  std::vector<unsigned> Threads = {1, 0}; // 0 = hardware concurrency.
  unsigned Repeat = 3;
  bool UseCache = true;
  bool ForceFixed = false;
  unsigned MaxStates = 0; // 0 = automaton default.
  /// Write the first reference row's concatenated assembly here (the
  /// batch half of the odburg-serve byte-identity check).
  std::string EmitAsmPath;
  /// Write the first generated corpus here in the serve wire format
  /// (s-expressions, one per statement, blank line between functions).
  std::string DumpCorpusPath;
};

int usage(const char *Argv0, int Exit) {
  std::fprintf(
      Exit == 0 ? stdout : stderr,
      "usage: %s [options]\n"
      "\n"
      "Generates a corpus of synthetic IR functions and compiles it\n"
      "end-to-end (label + reduce + emit) through one shared compile\n"
      "service, concurrently, on a selectable labeling backend.\n"
      "\n"
      "  --target=NAME|all     target grammar (default x86)\n"
      "  --profile=NAME|all    synthetic workload profile (default gzip-like)\n"
      "  --backend=LIST|all    labeling backend(s): dp, offline, ondemand,\n"
      "                        hybrid (default ondemand). offline always\n"
      "                        runs on the target's fixed-cost grammar;\n"
      "                        'all' implies --fixed so the rows are\n"
      "                        comparable. hybrid serves the static\n"
      "                        partition from offline tables and the\n"
      "                        dyn-cost remainder from the automaton\n"
      "  --fixed               use the fixed-cost (stripped) grammar for\n"
      "                        every backend\n"
      "  --functions=N         functions per (target, profile) corpus (default 32)\n"
      "  --nodes=N             approximate IR nodes per function (default 2000)\n"
      "  --threads=N[,N...]    worker counts to run; 0 = hardware concurrency\n"
      "                        (default 1,0)\n"
      "  --repeat=N            warm passes per row, best-of (default 3)\n"
      "  --no-cache            disable the transition cache (ablation;\n"
      "                        ondemand and hybrid backends)\n"
      "  --max-states=N        override the automaton state-growth bound\n"
      "  --emit-asm=PATH       write the first reference row's concatenated\n"
      "                        assembly to PATH (for diffing against the\n"
      "                        odburg-serve stream)\n"
      "  --dump-corpus=PATH    write the first generated corpus to PATH in\n"
      "                        the odburg-serve wire format (s-expressions,\n"
      "                        blank line between functions)\n"
      "  --list                list targets and profiles, then exit\n"
      "  --help                this text\n",
      Argv0);
  return Exit;
}

bool parseArgs(int Argc, char **Argv, DriverOptions &Opts, int &ExitCode) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    auto Value = [&Arg](std::string_view Prefix) {
      return Arg.substr(Prefix.size());
    };
    if (Arg == "--help" || Arg == "-h") {
      ExitCode = usage(Argv[0], 0);
      return false;
    }
    if (Arg == "--list") {
      std::printf("targets:\n");
      for (const std::string &T : targetNames())
        std::printf("  %s\n", T.c_str());
      std::printf("profiles:\n");
      for (const Profile &P : specProfiles())
        std::printf("  %-14s %6u nodes\n", P.Name.c_str(), P.TargetNodes);
      std::printf("backends:\n  dp\n  offline\n  ondemand\n  hybrid\n");
      ExitCode = 0;
      return false;
    }
    if (Arg == "--no-cache") {
      Opts.UseCache = false;
    } else if (Arg == "--fixed") {
      Opts.ForceFixed = true;
    } else if (startsWith(Arg, "--backend=")) {
      std::string_view V = Value("--backend=");
      Opts.Backends.clear();
      if (V == "all") {
        Opts.Backends = {BackendKind::DP, BackendKind::Offline,
                         BackendKind::OnDemand, BackendKind::Hybrid};
        // Offline cannot encode dynamic costs; leveling every backend onto
        // the fixed grammar keeps the cross-backend rows comparable.
        Opts.ForceFixed = true;
      } else {
        for (std::string_view Piece : split(V, ',')) {
          Expected<BackendKind> K = parseBackendKind(trim(Piece));
          if (!K) {
            std::fprintf(stderr, "error: %s\n", K.message().c_str());
            ExitCode = usage(Argv[0], 2);
            return false;
          }
          Opts.Backends.push_back(*K);
        }
        if (Opts.Backends.empty()) {
          std::fprintf(stderr, "--backend needs at least one name\n");
          ExitCode = usage(Argv[0], 2);
          return false;
        }
      }
    } else if (startsWith(Arg, "--target=")) {
      std::string_view V = Value("--target=");
      Opts.Targets.clear();
      if (V == "all") {
        Opts.Targets = targetNames();
      } else {
        Opts.Targets.emplace_back(V);
      }
    } else if (startsWith(Arg, "--profile=")) {
      std::string_view V = Value("--profile=");
      Opts.Profiles.clear();
      if (V == "all") {
        for (const Profile &P : specProfiles())
          Opts.Profiles.push_back(P.Name);
      } else {
        Opts.Profiles.emplace_back(V);
      }
    } else if (startsWith(Arg, "--functions=")) {
      if (!parseUnsigned(Value("--functions="), Opts.Functions) ||
          Opts.Functions == 0) {
        std::fprintf(stderr, "invalid --functions value\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else if (startsWith(Arg, "--nodes=")) {
      if (!parseUnsigned(Value("--nodes="), Opts.NodesPerFunction) ||
          Opts.NodesPerFunction == 0) {
        std::fprintf(stderr, "invalid --nodes value\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else if (startsWith(Arg, "--repeat=")) {
      if (!parseUnsigned(Value("--repeat="), Opts.Repeat) ||
          Opts.Repeat == 0) {
        std::fprintf(stderr, "invalid --repeat value\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else if (startsWith(Arg, "--emit-asm=")) {
      Opts.EmitAsmPath = std::string(Value("--emit-asm="));
    } else if (startsWith(Arg, "--dump-corpus=")) {
      Opts.DumpCorpusPath = std::string(Value("--dump-corpus="));
    } else if (startsWith(Arg, "--max-states=")) {
      if (!parseUnsigned(Value("--max-states="), Opts.MaxStates) ||
          Opts.MaxStates == 0) {
        std::fprintf(stderr, "invalid --max-states value\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else if (startsWith(Arg, "--threads=")) {
      Opts.Threads.clear();
      for (std::string_view Piece : split(Value("--threads="), ',')) {
        unsigned N = 0;
        if (!parseUnsigned(trim(Piece), N)) {
          std::fprintf(stderr, "invalid --threads value\n");
          ExitCode = usage(Argv[0], 2);
          return false;
        }
        Opts.Threads.push_back(N);
      }
      if (Opts.Threads.empty()) {
        std::fprintf(stderr, "--threads needs at least one count\n");
        ExitCode = usage(Argv[0], 2);
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", Argv[I]);
      ExitCode = usage(Argv[0], 2);
      return false;
    }
  }
  return true;
}

unsigned resolveThreads(unsigned N) {
  if (N != 0)
    return N;
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

/// Renders the label/reduce/emit share of \p Results' summed phase time as
/// "62/25/13" (percent, rounded), or "-" when no time was recorded. Phase
/// times are summed across workers, so they give the split, not the wall.
std::string labelReduceEmitSplit(const std::vector<CompileResult> &Results) {
  std::uint64_t Ns[3] = {0, 0, 0};
  for (const CompileResult &R : Results) {
    Ns[0] += R.LabelNs;
    Ns[1] += R.ReduceNs;
    Ns[2] += R.EmitNs;
  }
  double Total = static_cast<double>(Ns[0]) + static_cast<double>(Ns[1]) +
                 static_cast<double>(Ns[2]);
  if (Total == 0)
    return "-";
  auto Pct = [Total](std::uint64_t N) {
    return std::to_string(static_cast<unsigned>(
        100.0 * static_cast<double>(N) / Total + 0.5));
  };
  return Pct(Ns[0]) + "/" + Pct(Ns[1]) + "/" + Pct(Ns[2]);
}

/// Writes \p Text to \p Path; complains and returns false on failure.
bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::trunc);
  if (Out)
    Out << Text;
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return false;
  }
  return true;
}

/// Renders \p Corpus in the odburg-serve wire format: each statement root
/// as one s-expression line, one blank line between functions.
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

} // namespace

int main(int Argc, char **Argv) {
  DriverOptions Opts;
  int ExitCode = 0;
  if (!parseArgs(Argc, Argv, Opts, ExitCode))
    return ExitCode;

  TablePrinter Table(formatf(
      "End-to-end compile pipeline: %u functions x ~%u nodes per corpus%s "
      "(repeat=%u, hw=%u)",
      Opts.Functions, Opts.NodesPerFunction,
      Opts.UseCache ? "" : ", transition cache OFF", Opts.Repeat,
      resolveThreads(0)));
  Table.setHeader({"target", "profile", "backend", "gram", "thr", "nodes",
                   "cold ms", "warm ms", "fn/s", "speedup", "lbl/red/emt %",
                   "off%", "hit%", "states", "asm KB", "asm"});

  bool AllIdentical = true;
  bool AnyFailed = false;
  bool CorpusDumped = false;
  bool AsmEmitted = false;
  for (const std::string &TargetName : Opts.Targets) {
    Expected<std::unique_ptr<Target>> TOrErr = makeTarget(TargetName);
    if (!TOrErr) {
      std::fprintf(stderr, "error: %s\n", TOrErr.message().c_str());
      return 1;
    }
    Target &T = **TOrErr;

    for (const std::string &ProfileName : Opts.Profiles) {
      const Profile *P = findProfile(ProfileName);
      if (!P) {
        std::fprintf(stderr, "error: unknown profile '%s' (try --list)\n",
                     ProfileName.c_str());
        return 1;
      }

      // Reference assembly/cost per grammar variant: the first row of a
      // variant is the reference; every later row on the same variant —
      // other thread counts AND other backends — must reproduce it bit
      // for bit.
      struct Reference {
        std::uint64_t AsmHash = 0;
        Cost TotalCost = Cost::zero();
      };
      std::map<bool, Reference> RefByFixed;
      std::map<bool, std::vector<ir::IRFunction>> CorpusByFixed;

      for (BackendKind Backend : Opts.Backends) {
        bool Fixed = Opts.ForceFixed || Backend == BackendKind::Offline;
        const Grammar &G = Fixed ? T.Fixed : T.G;
        const DynCostTable *Dyn = Fixed ? nullptr : &T.Dyn;

        if (!CorpusByFixed.count(Fixed)) {
          Expected<std::vector<ir::IRFunction>> CorpusOrErr = generateBatch(
              *P, G, Opts.Functions, Opts.NodesPerFunction);
          if (!CorpusOrErr) {
            std::fprintf(stderr, "error: %s\n", CorpusOrErr.message().c_str());
            return 1;
          }
          CorpusByFixed.emplace(Fixed, std::move(*CorpusOrErr));
          if (!Opts.DumpCorpusPath.empty() && !CorpusDumped) {
            if (!writeFile(Opts.DumpCorpusPath,
                           corpusToWire(CorpusByFixed[Fixed], G)))
              return 1;
            CorpusDumped = true;
          }
        }
        std::vector<ir::IRFunction> &Corpus = CorpusByFixed[Fixed];
        std::vector<ir::IRFunction *> Ptrs;
        std::uint64_t TotalNodes = 0;
        for (ir::IRFunction &F : Corpus) {
          Ptrs.push_back(&F);
          TotalNodes += F.size();
        }

        CompileService::Options SOpts;
        SOpts.Backend = Backend;
        SOpts.BackendOpts.Automaton.UseTransitionCache = Opts.UseCache;
        if (Opts.MaxStates) {
          SOpts.BackendOpts.Automaton.MaxStates = Opts.MaxStates;
          SOpts.BackendOpts.OfflineMaxStates = Opts.MaxStates;
        }

        double BaselineWarmNs = 0;
        for (unsigned ThreadSpec : Opts.Threads) {
          unsigned Threads = resolveThreads(ThreadSpec);
          SOpts.Workers = Threads;
          Expected<std::unique_ptr<CompileService>> SvcOrErr =
              CompileService::create(G, Dyn, SOpts);
          if (!SvcOrErr) {
            std::fprintf(stderr, "error: %s backend: %s\n",
                         backendName(Backend), SvcOrErr.message().c_str());
            return 1;
          }
          CompileService &Svc = **SvcOrErr;

          // A cold pass, then best-of-Repeat warm passes; the row's
          // numbers come from the best warm pass.
          Stopwatch Wall;
          std::vector<CompileResult> Results = cantFail(compileAll(Svc, Ptrs));
          std::uint64_t ColdNs = Wall.elapsedNs();
          std::uint64_t WarmNs = ~0ULL;
          for (unsigned R = 0; R < Opts.Repeat; ++R) {
            Wall.restart();
            std::vector<CompileResult> Pass = cantFail(compileAll(Svc, Ptrs));
            std::uint64_t PassNs = Wall.elapsedNs();
            if (PassNs < WarmNs) {
              WarmNs = PassNs;
              Results = std::move(Pass);
            }
          }
          if (BaselineWarmNs == 0)
            BaselineWarmNs = static_cast<double>(WarmNs);

          SelectionStats Label;
          for (const CompileResult &R : Results) {
            Label += R.Stats;
            if (!R.ok()) {
              std::fprintf(stderr, "error: function failed to compile: %s\n",
                           R.Diagnostic.c_str());
              AnyFailed = true;
            }
          }

          std::string Asm = concatAsm(Results);
          std::uint64_t AsmHash = hashString(Asm);
          Cost TotalCost = totalCost(Results);
          std::string Check;
          if (!RefByFixed.count(Fixed)) {
            RefByFixed[Fixed] = {AsmHash, TotalCost};
            Check = "reference";
            // The corpus and assembly dumps pair up: both come from the
            // first (target, profile, grammar-variant) configuration, so
            // piping the dumped corpus through odburg-serve must
            // reproduce this assembly byte for byte.
            if (!Opts.EmitAsmPath.empty() && !AsmEmitted) {
              if (!writeFile(Opts.EmitAsmPath, Asm))
                return 1;
              AsmEmitted = true;
            }
          } else {
            const Reference &Ref = RefByFixed[Fixed];
            bool Identical =
                AsmHash == Ref.AsmHash && TotalCost == Ref.TotalCost;
            AllIdentical = AllIdentical && Identical;
            Check = Identical ? "identical" : "DIVERGED";
          }

          double HitPct = Label.CacheProbes
                              ? 100.0 * static_cast<double>(Label.CacheHits) /
                                    static_cast<double>(Label.CacheProbes)
                              : 0.0;
          double OffPct =
              Label.NodesLabeled
                  ? 100.0 * static_cast<double>(Label.OfflineHits) /
                        static_cast<double>(Label.NodesLabeled)
                  : 0.0;
          Table.addRow(
              {TargetName, ProfileName, backendName(Backend),
               Fixed ? "fixed" : "full", std::to_string(Threads),
               formatThousands(TotalNodes),
               formatFixed(static_cast<double>(ColdNs) / 1e6, 1),
               formatFixed(static_cast<double>(WarmNs) / 1e6, 1),
               formatFixed(static_cast<double>(Results.size()) * 1e9 /
                               static_cast<double>(WarmNs),
                           1),
               formatFixed(BaselineWarmNs / static_cast<double>(WarmNs), 2),
               labelReduceEmitSplit(Results), formatFixed(OffPct, 1),
               formatFixed(HitPct, 1),
               formatThousands(Svc.backend().numStates()),
               formatThousands(Asm.size() / 1024), Check});
        }
      }
      Table.addSeparator();
    }
  }
  Table.print();
  std::printf(
      "\nwarm pass = recompiling the corpus end-to-end against the already-\n"
      "warm backend (the JIT steady state); fn/s and the label/reduce/emit\n"
      "split are from the best warm pass; speedup is relative to the first\n"
      "thread count of the same backend. off%% is the share of nodes the\n"
      "hybrid resolved by direct offline-table indexing on the static\n"
      "partition, hit%% the share of the remaining probes the hashed\n"
      "seqlock transition cache answered (ondemand/hybrid backends).\n"
      "The asm column checks the concatenated assembly and total cost\n"
      "against the first row on the same grammar variant — across thread\n"
      "counts and backends alike, it must never read DIVERGED.\n");
  if (AnyFailed)
    return 1;
  if (!AllIdentical) {
    std::fprintf(stderr,
                 "FAILURE: a run diverged from the reference assembly\n");
    return 1;
  }
  return 0;
}

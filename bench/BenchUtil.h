//===- bench/BenchUtil.h - Shared benchmark harness pieces ------------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the experiment binaries: repeated-timing wrappers and
/// prepared workloads. Each bench binary regenerates one table or figure
/// of the (reconstructed) evaluation; see DESIGN.md section 4 and
/// EXPERIMENTS.md for the mapping.
///
//===----------------------------------------------------------------------===//

#ifndef ODBURG_BENCH_BENCHUTIL_H
#define ODBURG_BENCH_BENCHUTIL_H

#include "core/OnDemandAutomaton.h"
#include "offline/OfflineTables.h"
#include "select/DPLabeler.h"
#include "select/Reducer.h"
#include "support/StringUtil.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
#include "targets/AsmEmitter.h"
#include "targets/Target.h"
#include "workload/Corpus.h"
#include "workload/Synthetic.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace odburg {
namespace bench {

/// Whether the binary runs in smoke mode (--smoke): every bench scales
/// its corpus sizes and repetition counts down so CI can execute all
/// bench binaries cheaply. Smoke runs exercise the same code paths and
/// keep every built-in correctness check (bit-identity, divergence
/// detection) — only the numbers stop being meaningful.
inline bool &smokeMode() {
  static bool Smoke = false;
  return Smoke;
}

/// Path of the machine-readable report requested with --json=<path>;
/// empty when no JSON output was requested.
inline std::string &jsonPath() {
  static std::string Path;
  return Path;
}

/// The collected JSON objects (already rendered), one per recorded row.
inline std::vector<std::string> &jsonObjects() {
  static std::vector<std::string> Objects;
  return Objects;
}

/// Parses the arguments every bench binary accepts — --smoke and
/// --json=<path> — and returns smoke mode. Call first thing in main.
inline bool parseBenchArgs(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (Arg == "--smoke")
      smokeMode() = true;
    else if (startsWith(Arg, "--json="))
      jsonPath() = std::string(Arg.substr(7));
  }
  return smokeMode();
}

/// Renders \p S as a JSON string literal.
inline std::string jsonQuote(std::string_view S) {
  std::string Out = "\"";
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
  Out += '"';
  return Out;
}

/// True iff \p S matches the JSON number grammar exactly:
/// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. Deliberately stricter
/// than strtod, which also accepts inf/nan/hex/"5."/"+1" — tokens that
/// would corrupt the report for every JSON consumer.
inline bool isJsonNumber(const std::string &S) {
  std::size_t I = 0, N = S.size();
  auto Digits = [&] {
    std::size_t Start = I;
    while (I < N && S[I] >= '0' && S[I] <= '9')
      ++I;
    return I > Start;
  };
  if (I < N && S[I] == '-')
    ++I;
  if (I < N && S[I] == '0')
    ++I;
  else if (!Digits())
    return false;
  if (I < N && S[I] == '.') {
    ++I;
    if (!Digits())
      return false;
  }
  if (I < N && (S[I] == 'e' || S[I] == 'E')) {
    ++I;
    if (I < N && (S[I] == '+' || S[I] == '-'))
      ++I;
    if (!Digits())
      return false;
  }
  return I == N;
}

/// A table cell as a JSON value: plain numbers stay numbers, everything
/// else (including formatThousands output, "inf" and "-") becomes a
/// string.
inline std::string jsonCell(const std::string &S) {
  return isJsonNumber(S) ? S : jsonQuote(S);
}

/// Records one JSON object for bench \p Bench. \p Fields are
/// (key, pre-rendered JSON value) pairs — use jsonQuote for strings and
/// std::to_string/formatFixed for numbers. No-op without --json.
inline void
recordJson(std::string_view Bench,
           std::initializer_list<std::pair<std::string_view, std::string>>
               Fields) {
  if (jsonPath().empty())
    return;
  std::string Obj = "{\"bench\": " + jsonQuote(Bench);
  for (const auto &[Key, Value] : Fields)
    Obj += ", " + jsonQuote(Key) + ": " + Value;
  Obj += "}";
  jsonObjects().push_back(std::move(Obj));
}

/// Records every data row of \p Table as one JSON object keyed by the
/// table's header cells (the generic bridge from the human-readable
/// tables to the machine-readable report). No-op without --json.
inline void recordTable(std::string_view Bench, const TablePrinter &Table) {
  if (jsonPath().empty())
    return;
  const std::vector<std::string> &Header = Table.header();
  for (const std::vector<std::string> &Row : Table.dataRows()) {
    if (Row.empty())
      continue;
    std::string Obj = "{\"bench\": " + jsonQuote(Bench) +
                      ", \"smoke\": " + (smokeMode() ? "true" : "false");
    for (std::size_t I = 0; I < Row.size() && I < Header.size(); ++I)
      Obj += ", " + jsonQuote(Header[I]) + ": " + jsonCell(Row[I]);
    Obj += "}";
    jsonObjects().push_back(std::move(Obj));
  }
}

/// The host/build metadata object every report starts with, so two
/// BENCH_*.json files can be compared with their provenance in view
/// (tools/bench_compare.py refuses cross-build-type comparisons and
/// warns on differing core counts). Rendered as a row with
/// "bench": "__meta__" so row-oriented consumers skip it naturally.
inline std::string hostMetaJson() {
#ifdef NDEBUG
  const char *Build = "release";
#else
  const char *Build = "debug";
#endif
#if defined(__VERSION__)
  std::string Compiler = __VERSION__;
#else
  std::string Compiler = "unknown";
#endif
#if defined(__linux__)
  const char *Os = "linux";
#elif defined(__APPLE__)
  const char *Os = "darwin";
#else
  const char *Os = "unknown";
#endif
  return std::string("{\"bench\": \"__meta__\", \"hardware_concurrency\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build\": " + jsonQuote(Build) +
         ", \"compiler\": " + jsonQuote(Compiler) +
         ", \"os\": " + jsonQuote(Os) +
         ", \"smoke\": " + (smokeMode() ? "true" : "false") + "}";
}

/// Writes the collected objects as a JSON array to the --json path,
/// prefixed by the host metadata object (hostMetaJson). Call once at the
/// end of main; returns false (and complains on stderr) when the file
/// cannot be written.
inline bool writeJsonReport() {
  if (jsonPath().empty())
    return true;
  std::FILE *F = std::fopen(jsonPath().c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write --json file '%s'\n",
                 jsonPath().c_str());
    return false;
  }
  std::fputs("[\n", F);
  std::fprintf(F, "  %s%s\n", hostMetaJson().c_str(),
               jsonObjects().empty() ? "" : ",");
  for (std::size_t I = 0; I < jsonObjects().size(); ++I)
    std::fprintf(F, "  %s%s\n", jsonObjects()[I].c_str(),
                 I + 1 < jsonObjects().size() ? "," : "");
  std::fputs("]\n", F);
  std::fclose(F);
  return true;
}

/// \p Full normally; \p Smoke under --smoke.
inline unsigned smokeScaled(unsigned Full, unsigned Smoke) {
  return smokeMode() ? Smoke : Full;
}

/// Runs \p Fn \p Reps times and returns the minimum wall time in
/// nanoseconds (minimum-of-N filters scheduler noise, the usual practice
/// for short deterministic regions).
template <typename FnT>
std::uint64_t bestOfNs(unsigned Reps, FnT &&Fn) {
  if (smokeMode())
    Reps = 1;
  std::uint64_t Best = ~0ULL;
  for (unsigned I = 0; I < Reps; ++I) {
    Stopwatch W;
    Fn();
    Best = std::min(Best, W.elapsedNs());
  }
  return Best;
}

/// Emitted-instruction count of a selection under \p G (used for the
/// per-emitted-instruction metrics of the figures).
inline unsigned emittedInstructions(const Grammar &G, const ir::IRFunction &F,
                                    const Labeling &L,
                                    const DynCostTable *Dyn) {
  Selection S = cantFail(reduce(G, F, L, Dyn));
  targets::AsmBuffer Out;
  cantFail(targets::emitAsm(G, F, S, Out));
  return Out.Instructions;
}

} // namespace bench
} // namespace odburg

#endif // ODBURG_BENCH_BENCHUTIL_H

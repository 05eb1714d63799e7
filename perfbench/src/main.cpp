//===- perfbench/src/main.cpp - The repository benchmark driver -----------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// odburg-perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
///
/// Runs one seeded workload (warm_x86, cold_synth, serve_x86), checks
/// every output against the independent dp reference, prints every
/// metric by name with its unit, and ends with one JSON line:
///
///   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
///
/// With --trace=0 the metrics are the end-to-end ones, with --trace=1 the
/// per-layer ones from a traced run. Exits 1 on any mismatch or failed
/// check, 2 on bad usage or a non-Release build. --self-test runs the
/// benchmark's own checks; --smoke runs every workload briefly with all
/// checks on; --list-metrics prints the metric names and units.
///
//===----------------------------------------------------------------------===//

#include "Host.h"
#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

using namespace perfbench;

namespace {

const char *Usage =
    "usage: odburg-perfbench --workload=warm_x86|cold_synth|serve_x86\n"
    "                        [--seed=N] [--seconds=S] [--trace=0|1]\n"
    "                        [--serve-bin=PATH] [--work-dir=DIR]\n"
    "       odburg-perfbench --smoke\n"
    "       odburg-perfbench --self-test\n"
    "       odburg-perfbench --list-metrics\n";

bool isRelease() {
#ifndef NDEBUG
  return false;
#else
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#endif
}

/// Accepts "--name=value" and "--name value".
bool option(int Argc, char **Argv, int &I, const char *Name,
            std::string &Out) {
  std::size_t Len = std::strlen(Name);
  if (std::strncmp(Argv[I], Name, Len) != 0)
    return false;
  if (Argv[I][Len] == '=') {
    Out = Argv[I] + Len + 1;
    return true;
  }
  if (Argv[I][Len] == '\0' && I + 1 < Argc) {
    Out = Argv[++I];
    return true;
  }
  return false;
}

/// Renders the result line; false when a metric is missing, not finite,
/// unlisted, or measured in another unit than its listing.
bool renderJson(const RunResult &R, bool Trace, std::string &Out) {
  const std::vector<MetricSpec> &Specs =
      Trace ? perLayerMetrics() : endToEndMetrics();
  std::map<std::string, std::string> Units;
  for (const auto *List : {&endToEndMetrics(), &perLayerMetrics()})
    for (const MetricSpec &M : *List)
      Units[M.Name] = M.Unit;
  for (const auto &[Name, M] : R.Metrics)
    if (!Units.count(Name) || Units[Name] != M.Unit) {
      std::fprintf(stderr, "internal error: metric %s (%s) is not listed\n",
                   Name.c_str(), M.Unit.c_str());
      return false;
    }
  char Buf[256];
  std::snprintf(Buf, sizeof Buf,
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                R.Correct && R.Failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(R.Attempted),
                static_cast<unsigned long long>(R.Failed));
  Out = Buf;
  const char *Sep = "";
  for (const MetricSpec &Spec : Specs) {
    auto It = R.Metrics.find(Spec.Name);
    // A layer the workload does not exercise reads 0 (see README.md);
    // end-to-end metrics are always measured.
    if (It == R.Metrics.end() && !Trace) {
      std::fprintf(stderr, "internal error: %s not measured\n", Spec.Name);
      return false;
    }
    double V = It == R.Metrics.end() ? 0.0 : It->second.Value;
    if (!std::isfinite(V)) {
      std::fprintf(stderr, "metric %s is not finite\n", Spec.Name);
      return false;
    }
    std::snprintf(Buf, sizeof Buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  Sep, Spec.Name, V, Spec.Unit);
    Out += Buf;
    Sep = ", ";
  }
  Out += "}}";
  return true;
}

void printReport(const char *Workload, const RunResult &R) {
  for (const auto &[Name, M] : R.Metrics)
    std::printf("%-12s %-32s %.6g %s\n", Workload, Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("%-12s attempted %llu, failed %llu\n", Workload,
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
}

RunResult run(const RunConfig &C) {
  return C.Kind == WorkloadKind::ServeX86 ? runServe(C) : runInProcess(C);
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig C;
  bool HaveWorkload = false, SelfTest = false, ListMetrics = false;
  std::filesystem::path Self = std::filesystem::absolute(Argv[0]);
  C.ServeBin = (Self.parent_path() / "odburg" / "tools" / "odburg-serve").string();
  C.WorkDir = (Self.parent_path() / "runs").string();
  for (int I = 1; I < Argc; ++I) {
    std::string V;
    if (option(Argc, Argv, I, "--workload", V)) {
      if (!parseWorkload(V, C.Kind)) {
        std::fprintf(stderr, "unknown workload '%s'\n%s", V.c_str(), Usage);
        return 2;
      }
      HaveWorkload = true;
    } else if (option(Argc, Argv, I, "--seed", V)) {
      C.Seed = std::strtoull(V.c_str(), nullptr, 10);
    } else if (option(Argc, Argv, I, "--seconds", V)) {
      C.Seconds = std::strtod(V.c_str(), nullptr);
    } else if (option(Argc, Argv, I, "--trace", V)) {
      if (V != "0" && V != "1") {
        std::fprintf(stderr, "--trace takes 0 or 1\n%s", Usage);
        return 2;
      }
      C.Trace = V == "1";
    } else if (option(Argc, Argv, I, "--serve-bin", V)) {
      C.ServeBin = V;
    } else if (option(Argc, Argv, I, "--work-dir", V)) {
      C.WorkDir = V;
    } else if (std::strcmp(Argv[I], "--smoke") == 0) {
      C.Smoke = true;
    } else if (std::strcmp(Argv[I], "--self-test") == 0) {
      SelfTest = true;
    } else if (std::strcmp(Argv[I], "--list-metrics") == 0) {
      ListMetrics = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n%s", Argv[I], Usage);
      return 2;
    }
  }
  if (!isRelease()) {
    std::fprintf(stderr, "refusing to measure a %s build; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  if (SelfTest)
    return runSelfTest() == 0 ? 0 : 1;
  if (ListMetrics) {
    // What run.py --self-test compares with BENCHMARK.json.
    const char *Sep = "{\"end_to_end\": [";
    for (const MetricSpec &M : endToEndMetrics()) {
      std::printf("%s[\"%s\", \"%s\"]", Sep, M.Name, M.Unit);
      Sep = ", ";
    }
    Sep = "], \"per_layer\": [";
    for (const MetricSpec &M : perLayerMetrics()) {
      std::printf("%s[\"%s\", \"%s\"]", Sep, M.Name, M.Unit);
      Sep = ", ";
    }
    std::printf("]}\n");
    return 0;
  }
  if (!HaveWorkload && !C.Smoke) {
    std::fputs(Usage, stderr);
    return 2;
  }
  if (!(C.Seconds > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  std::error_code EC;
  std::filesystem::create_directories(C.WorkDir, EC);

  std::vector<WorkloadKind> Kinds;
  if (HaveWorkload)
    Kinds.push_back(C.Kind);
  else
    Kinds = {WorkloadKind::WarmX86, WorkloadKind::ColdSynth,
             WorkloadKind::ServeX86};
  if (C.Smoke)
    C.Seconds = std::min(C.Seconds, 1.0);

  std::printf("host: nproc=%u load1=%.2f\n", processorCount(), loadAverage1());
  bool AllOk = true;
  std::string Lines;
  for (WorkloadKind K : Kinds) {
    C.Kind = K;
    RunResult R = run(C);
    if (!R.Error.empty()) {
      std::fprintf(stderr, "%s: %s\n", workloadName(K), R.Error.c_str());
      return 1;
    }
    printReport(workloadName(K), R);
    std::string Line;
    if (!renderJson(R, C.Trace, Line))
      return 1;
    AllOk &= R.Correct && R.Failed == 0;
    Lines += Line;
    Lines += '\n';
  }
  std::printf("host: load1=%.2f\n", loadAverage1());
  std::fputs(Lines.c_str(), stdout);
  std::fflush(stdout);
  return AllOk ? 0 : 1;
}

namespace perfbench {

const std::vector<MetricSpec> &endToEndMetrics() {
  static const std::vector<MetricSpec> Specs = {
      {"setup_s", "s"},
      {"first_pass_s", "s"},
      {"throughput_knodes_s", "knodes/s"},
      {"latency_ms_p50", "ms"},
      {"latency_ms_p99", "ms"},
      {"max_rate_fn_s", "fn/s"},
      {"peak_rss_mb", "MB"},
      {"ok_frac", "fraction"}};
  return Specs;
}

const std::vector<MetricSpec> &perLayerMetrics() {
  static const std::vector<MetricSpec> Specs = {
      {"core.label_ns_per_node", "ns"},
      {"core.first_label_ns_per_node", "ns"},
      {"core.states", "count"},
      {"core.backend_mb", "MB"},
      {"core.l1_hit_rate", "fraction"},
      {"core.l1_probes", "count"},
      {"core.dense_hit_rate", "fraction"},
      {"core.dense_probes", "count"},
      {"core.l2_hit_rate", "fraction"},
      {"core.l2_probes", "count"},
      {"select.reduce_ns_per_node", "ns"},
      {"targets.emit_ns_per_byte", "ns"},
      {"targets.emit_share", "fraction"},
      {"pipeline.delivery_us_p50", "us"},
      {"pipeline.delivery_us_p99", "us"},
      {"pipeline.delivery_samples", "count"},
      {"pipeline.cores_busy", "cores"},
      {"pipeline.parallel_efficiency", "fraction"},
      {"ir.parse_ns_per_byte", "ns"},
      {"serve.server_us_p50", "us"},
      {"serve.server_us_p99", "us"},
      {"serve.overhead_us_p50", "us"},
      {"serve.shed", "count"},
      {"serve.generator_lag_ms_p99", "ms"},
      {"serve.pooled_p99_ms", "ms"},
      {"serve.latency_samples", "count"},
      {"work.nodes", "count"},
      {"work.functions", "count"},
      {"work.asm_bytes", "bytes"},
      {"trace.overhead_frac", "fraction"},
      {"trace.spans", "count"},
      {"host.nproc", "count"},
      {"host.load1_before", "load"},
      {"host.load1_after", "load"},
      {"host.steal_frac", "fraction"}};
  return Specs;
}

} // namespace perfbench

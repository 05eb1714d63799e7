//===- perfbench/src/Workloads.h - Workload runners and their results -----===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Check.h"
#include "Inputs.h"
#include "Trace.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  WorkloadKind Kind = WorkloadKind::WarmX86;
  std::uint64_t Seed = 1;
  /// Measured time per run; set-up and the reference come on top.
  double Seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool Trace = false;
  /// Small corpora and short phases, every check still on.
  bool Smoke = false;
  /// The odburg-serve binary (serve_x86 only).
  std::string ServeBin;
  /// Directory for the port file and the span dump.
  std::string WorkDir;
};

struct Metric {
  double Value = 0.0;
  std::string Unit;
};

struct RunResult {
  /// False when any output mismatched or a validity check failed.
  bool Correct = true;
  /// Functions compiled (or sent) in the measured phases, and how many of
  /// them failed, were refused, timed out, or mismatched.
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  /// Fatal set-up error; the run prints no result.
  std::string Error;
  std::map<std::string, Metric> Metrics;

  void set(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
};

RunResult runInProcess(const RunConfig &C);
RunResult runServe(const RunConfig &C);

/// The benchmark's own checks; returns the number of failures.
int runSelfTest();

/// A reported metric and its unit, as BENCHMARK.json lists it.
struct MetricSpec {
  const char *Name;
  const char *Unit;
};
/// Every metric a run reports, in output order: the end-to-end ones with
/// --trace=0, the per-layer ones with --trace=1.
const std::vector<MetricSpec> &endToEndMetrics();
const std::vector<MetricSpec> &perLayerMetrics();

/// The single-thread decomposition pass of a traced run: each corpus
/// function is parsed from its wire text, labeled, reduced and emitted by
/// direct calls on the calling thread, each call in its own span. One
/// pass on a fresh on-demand backend, then \p WarmPasses on the warm one.
struct Decomposition {
  double LabelNsPerNode = 0;
  double FirstLabelNsPerNode = 0;
  double ReduceNsPerNode = 0;
  double EmitNsPerByte = 0;
  double EmitShare = 0;
  double ParseNsPerByte = 0;
  /// Warm label + reduce + emit throughput of one thread, nodes/s.
  double NodesPerSec = 0;
  /// Results that did not match the reference.
  std::uint64_t Failed = 0;
};
Decomposition decompose(Inputs &In, const std::vector<Reference> &Refs,
                        bool CheckRules, Trace &T, unsigned WarmPasses);

/// Per-pass work counts and host readings every run reports.
void recordWork(RunResult &R, const Inputs &In,
                const std::vector<Reference> &Refs);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H

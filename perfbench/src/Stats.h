//===- perfbench/src/Stats.h - Percentiles with their sample counts -------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics for the benchmark. A percentile is only as good as the
/// samples beyond it, so percentile() refuses (Valid == false) unless at
/// least MinBeyond samples lie above the reported rank, and always says
/// how many samples it saw. p99 therefore needs 1000 samples, p50 20.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a percentile's rank.
inline constexpr std::size_t MinBeyond = 10;

/// One percentile of a sample, with the sample size behind it.
struct Percentile {
  double Value = 0.0;
  std::size_t Samples = 0;
  /// Samples strictly beyond the reported rank.
  std::size_t Beyond = 0;
  /// False when Beyond < MinBeyond; Value is then meaningless.
  bool Valid = false;
};

/// Nearest-rank percentile \p P (0 < P < 100) of \p Samples.
Percentile percentile(std::vector<double> Samples, double P);

/// Samples per window of windowPercentiles(): enough for a valid p99.
inline constexpr std::size_t WindowSamples = 1100;

/// Percentile \p P of each window of WindowSamples consecutive samples of
/// \p Samples (in arrival order; a short tail joins the last window).
/// Empty when there are fewer than WindowSamples samples. A tail
/// percentile per short window, then the median over windows, reports the
/// tail the program keeps up, not a rare stall of the shared machine that
/// lands on a few windows.
std::vector<double> windowPercentiles(const std::vector<double> &Samples,
                                      double P);

/// Median of a nonempty sample (average of the middle pair when even).
double median(std::vector<double> Samples);

/// Lower quartile of a nonempty sample, interpolated between ranks. The
/// benchmark reports it over windowed p99s: the shared machine's noise
/// only ever raises a window's tail, so the quiet quarter of the windows
/// shows the tail of the program, and a program whose tail grows raises
/// every window.
double lowerQuartile(std::vector<double> Samples);

/// Indices, in ascending order, of the ceil(n/2) samples with the least
/// \p Noise (ties keep the earlier sample). The benchmark passes each
/// sample's hypervisor steal share, so a stretch in which the shared
/// machine took the processors away is measured but not reported.
std::vector<std::size_t> cleanestHalf(const std::vector<double> &Noise);

/// "p99=1.234 (n=5000)" or "p99=refused (n=80, 0 beyond)".
std::string describe(const Percentile &Q, double P);

} // namespace perfbench

#endif // PERFBENCH_STATS_H

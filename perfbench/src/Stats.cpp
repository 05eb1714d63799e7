//===- perfbench/src/Stats.cpp - Percentiles with their sample counts -----===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

Percentile percentile(std::vector<double> Samples, double P) {
  Percentile Q;
  Q.Samples = Samples.size();
  if (Samples.empty() || !(P > 0.0 && P < 100.0))
    return Q;
  // Nearest rank: the smallest value with at least P% of samples at or
  // below it.
  std::size_t Rank = static_cast<std::size_t>(
      std::ceil(P / 100.0 * static_cast<double>(Samples.size())));
  Rank = std::clamp<std::size_t>(Rank, 1, Samples.size());
  std::nth_element(Samples.begin(), Samples.begin() + (Rank - 1),
                   Samples.end());
  Q.Value = Samples[Rank - 1];
  Q.Beyond = Samples.size() - Rank;
  Q.Valid = Q.Beyond >= MinBeyond;
  return Q;
}

double median(std::vector<double> Samples) {
  std::sort(Samples.begin(), Samples.end());
  std::size_t N = Samples.size();
  if (N == 0)
    return 0.0;
  return N % 2 ? Samples[N / 2] : (Samples[N / 2 - 1] + Samples[N / 2]) / 2;
}

double lowerQuartile(std::vector<double> Samples) {
  std::sort(Samples.begin(), Samples.end());
  if (Samples.empty())
    return 0.0;
  double Pos = 0.25 * static_cast<double>(Samples.size() - 1);
  std::size_t I = static_cast<std::size_t>(Pos);
  double Frac = Pos - static_cast<double>(I);
  return I + 1 < Samples.size()
             ? Samples[I] + Frac * (Samples[I + 1] - Samples[I])
             : Samples[I];
}

std::vector<double> windowPercentiles(const std::vector<double> &Samples,
                                      double P) {
  std::vector<double> Out;
  std::size_t Windows = Samples.size() / WindowSamples;
  for (std::size_t W = 0; W < Windows; ++W) {
    auto Begin = Samples.begin() + static_cast<std::ptrdiff_t>(W * WindowSamples);
    auto End = W + 1 == Windows ? Samples.end() : Begin + WindowSamples;
    Out.push_back(percentile(std::vector<double>(Begin, End), P).Value);
  }
  return Out;
}

std::vector<std::size_t> cleanestHalf(const std::vector<double> &Noise) {
  std::vector<std::size_t> Idx(Noise.size());
  for (std::size_t I = 0; I < Idx.size(); ++I)
    Idx[I] = I;
  std::stable_sort(Idx.begin(), Idx.end(), [&](std::size_t A, std::size_t B) {
    return Noise[A] < Noise[B];
  });
  Idx.resize((Idx.size() + 1) / 2);
  std::sort(Idx.begin(), Idx.end());
  return Idx;
}

std::string describe(const Percentile &Q, double P) {
  char Buf[128];
  if (Q.Valid)
    std::snprintf(Buf, sizeof Buf, "p%g=%.6g (n=%zu)", P, Q.Value, Q.Samples);
  else
    std::snprintf(Buf, sizeof Buf, "p%g=refused (n=%zu, %zu beyond)", P,
                  Q.Samples, Q.Beyond);
  return Buf;
}

} // namespace perfbench

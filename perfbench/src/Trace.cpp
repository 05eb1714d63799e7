//===- perfbench/src/Trace.cpp - In-memory spans around calls into layers -===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

namespace perfbench {

Trace::Trace(bool Enabled, std::size_t Capacity)
    : Enabled(Enabled), Capacity(Enabled ? Capacity : 0),
      Spans(Enabled ? new Span[Capacity] : nullptr) {}

std::uint32_t Trace::open(const char *Name, std::uint64_t Req,
                          std::uint32_t Parent, std::uint64_t StartNs) {
  if (!Enabled)
    return 0;
  std::size_t Slot = Next.fetch_add(1, std::memory_order_relaxed);
  if (Slot >= Capacity) {
    Dropped.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  Span &S = Spans[Slot];
  S.Name = Name;
  S.StartNs = StartNs;
  S.EndNs = StartNs;
  S.Parent = Parent;
  S.Req = Req;
  return static_cast<std::uint32_t>(Slot + 1);
}

void Trace::close(std::uint32_t Id, std::uint64_t EndNs) {
  if (Id)
    Spans[Id - 1].EndNs = EndNs;
}

std::size_t Trace::size() const {
  return std::min(Next.load(), Capacity);
}

std::map<std::string, double> Trace::selfTimeNs() const {
  std::size_t N = size();
  // Children intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> Kids(N);
  for (std::size_t I = 0; I < N; ++I) {
    const Span &S = Spans[I];
    if (!S.Parent || S.Parent > N)
      continue;
    const Span &P = Spans[S.Parent - 1];
    std::uint64_t B = std::max(S.StartNs, P.StartNs);
    std::uint64_t E = std::min(S.EndNs, P.EndNs);
    if (B < E)
      Kids[S.Parent - 1].emplace_back(B, E);
  }
  std::map<std::string, double> Out;
  for (std::size_t I = 0; I < N; ++I) {
    const Span &S = Spans[I];
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    // Length of the union of the children's intervals.
    std::uint64_t Covered = 0, CurB = 0, CurE = 0;
    for (auto [B, E] : K) {
      if (B > CurE) {
        Covered += CurE - CurB;
        CurB = B;
        CurE = E;
      } else {
        CurE = std::max(CurE, E);
      }
    }
    Covered += CurE - CurB;
    Out[S.Name] += static_cast<double>(S.EndNs - S.StartNs - Covered);
  }
  return Out;
}

bool Trace::writeCsv(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "id,parent,req,name,start_ns,end_ns\n");
  for (std::size_t I = 0, N = size(); I < N; ++I) {
    const Span &S = Spans[I];
    std::fprintf(F, "%zu,%u,%llu,%s,%llu,%llu\n", I + 1, S.Parent,
                 static_cast<unsigned long long>(S.Req), S.Name,
                 static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs));
  }
  return std::fclose(F) == 0;
}

} // namespace perfbench

//===- perfbench/src/Check.cpp - Independent reference and result checks --===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "Check.h"

#include "select/LabelerBackend.h"
#include "select/Oracle.h"
#include "targets/AsmEmitter.h"

#include <algorithm>
#include <cstdlib>

using namespace odburg;

namespace perfbench {

Expected<std::vector<Reference>>
computeReference(const Grammar &G, const DynCostTable *Dyn,
                 std::vector<ir::IRFunction> &Fns) {
  Expected<std::unique_ptr<LabelerBackend>> B =
      LabelerBackend::create(BackendKind::DP, G, Dyn);
  if (!B)
    return B.takeError();
  LabelerScratch Scratch;
  std::vector<Reference> Refs;
  Refs.reserve(Fns.size());
  for (ir::IRFunction &F : Fns) {
    const Labeling &L = (*B)->labelFunction(F, Scratch);
    Expected<Selection> S = reduce(G, F, L, Dyn);
    if (!S)
      return S.takeError();
    targets::AsmBuffer Buf;
    if (Error E = targets::emitAsm(G, F, *S, Buf))
      return E;
    Reference R;
    R.Asm = std::move(Buf.Text);
    R.Total = S->TotalCost;
    for (const Match &M : S->Matches)
      R.Rules.emplace_back(M.Where->id(), M.Source);
    Refs.push_back(std::move(R));
  }
  return Refs;
}

bool matches(const Reference &R, std::string_view Asm, const Selection *Sel,
             bool CheckRules) {
  if (Asm != R.Asm)
    return false;
  if (!Sel)
    return true;
  if (Sel->TotalCost != R.Total)
    return false;
  if (!CheckRules)
    return true;
  if (Sel->Matches.size() != R.Rules.size())
    return false;
  for (std::size_t I = 0; I < R.Rules.size(); ++I)
    if (Sel->Matches[I].Where->id() != R.Rules[I].first ||
        Sel->Matches[I].Source != R.Rules[I].second)
      return false;
  return true;
}

unsigned oracleMismatches(const Grammar &G, const DynCostTable *Dyn,
                          const std::vector<ir::IRFunction> &Sample,
                          const std::vector<Cost> &Costs) {
  unsigned Bad = 0;
  for (std::size_t I = 0; I < Sample.size(); ++I) {
    Cost Optimum = Cost::zero();
    for (const ir::Node *Root : Sample[I].roots())
      Optimum = Optimum + oracleCost(G, *Root, G.startNt(), Dyn);
    if (I >= Costs.size() || Costs[I] != Optimum)
      ++Bad;
  }
  return Bad;
}

void ResponseChecker::expect(std::size_t Frame, const std::string *Asm) {
  if (Head == Pending.size()) {
    Pending.clear();
    Head = 0;
  }
  Pending.push_back({Frame, Asm});
}

void ResponseChecker::failPending(
    std::vector<std::pair<std::size_t, bool>> &Done) {
  for (; Head < Pending.size(); ++Head)
    Done.emplace_back(Pending[Head].Id, false);
  Pos = 0;
}

void ResponseChecker::finishRecord(
    std::vector<std::pair<std::size_t, bool>> &Done) {
  InRecord = false;
  if (Record.rfind("STATS ", 0) == 0) {
    Stats = Record.substr(6);
    return;
  }
  std::size_t At = Record.find("seq=");
  if (At != std::string::npos) {
    std::size_t Seq = std::strtoull(Record.c_str() + At + 4, nullptr, 10);
    for (std::size_t I = Head; I < Pending.size(); ++I)
      if (Pending[I].Id == Seq) {
        Done.emplace_back(Seq, false);
        Pending.erase(Pending.begin() + static_cast<std::ptrdiff_t>(I));
        return;
      }
    Broken = true; // A record for a frame we are not waiting for.
    return;
  }
  if (!empty())
    Done.emplace_back(Pending[Head++].Id, false);
  else
    Broken = true;
}

void ResponseChecker::feed(std::string_view Bytes,
                           std::vector<std::pair<std::size_t, bool>> &Done) {
  while (!Bytes.empty() && !Broken) {
    if (InRecord) {
      std::size_t Nl = Bytes.find('\n');
      Record.append(Bytes.substr(0, Nl));
      if (Nl == std::string_view::npos)
        return;
      Bytes.remove_prefix(Nl + 1);
      finishRecord(Done);
      continue;
    }
    // Blocks with no assembly complete as soon as they reach the front.
    while (!empty() && Pos == 0 && Pending[Head].Asm->empty())
      Done.emplace_back(Pending[Head++].Id, true);
    if (Pos == 0 && (Bytes.front() == 'E' || Bytes.front() == 'S')) {
      InRecord = true;
      Record.clear();
      continue;
    }
    if (empty()) {
      Broken = true;
      break;
    }
    const std::string &Want = *Pending[Head].Asm;
    std::size_t N = std::min(Bytes.size(), Want.size() - Pos);
    if (Bytes.substr(0, N) != std::string_view(Want).substr(Pos, N)) {
      Broken = true;
      break;
    }
    Pos += N;
    Bytes.remove_prefix(N);
    if (Pos == Want.size()) {
      Done.emplace_back(Pending[Head++].Id, true);
      Pos = 0;
    }
  }
  if (Broken)
    failPending(Done);
}

} // namespace perfbench

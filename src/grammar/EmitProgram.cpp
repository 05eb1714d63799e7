//===- grammar/EmitProgram.cpp - Compiled emission templates --------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "grammar/EmitProgram.h"

#include "grammar/Grammar.h"

#include <cassert>
#include <string_view>

using namespace odburg;

namespace {

/// Appends the first nine nonterminal leaves of \p P (left to right) with
/// their child-index paths; counts every leaf in \p Count.
void collectLeaves(const PatternNode *P, SmallVectorImpl<std::uint16_t> &Path,
                   EmitTables &T, unsigned &Count) {
  if (P->isLeaf()) {
    if (Count++ >= 9)
      return;
    assert(Path.size() <= 0xFFFF && "pattern too deep");
    T.Leaves.push_back({P->Nt, static_cast<std::uint16_t>(Path.size()),
                        static_cast<std::uint32_t>(T.Paths.size())});
    T.Paths.insert(T.Paths.end(), Path.begin(), Path.end());
    return;
  }
  for (unsigned I = 0; I < P->NumChildren; ++I) {
    assert(I <= 0xFFFF && "operator too wide");
    Path.push_back(static_cast<std::uint16_t>(I));
    collectLeaves(P->Children[I], Path, T, Count);
    Path.pop_back();
  }
}

} // namespace

void EmitTables::compile(const std::vector<SourceRule> &Rules) {
  std::size_t TemplateBytes = 0;
  for (const SourceRule &R : Rules)
    TemplateBytes += R.EmitTemplate.size();
  Programs.reserve(Rules.size());
  Ops.reserve(Rules.size() + TemplateBytes / 4);
  Leaves.reserve(2 * Rules.size());
  Pool.reserve(TemplateBytes + PoolPadding);
  for (const SourceRule &R : Rules)
    compile(R);
  Pool.append(PoolPadding, '\0');
}

void EmitTables::push(EmitOp::KindT Kind, std::uint8_t Arg,
                      std::size_t LitBegin) {
  constexpr std::size_t MaxLen = 0xFFFF;
  for (; Pool.size() - LitBegin > MaxLen; LitBegin += MaxLen)
    Ops.push_back({EmitOp::Literal, 0, MaxLen,
                   static_cast<std::uint32_t>(LitBegin)});
  Ops.push_back({Kind, Arg, static_cast<std::uint16_t>(Pool.size() - LitBegin),
                 static_cast<std::uint32_t>(LitBegin)});
}

void EmitTables::compile(const SourceRule &R) {
  EmitProgram P;
  P.LeafBegin = static_cast<std::uint32_t>(Leaves.size());
  unsigned NumOperands = 0;
  SmallVector<std::uint16_t, 8> Path;
  collectLeaves(R.Pattern, Path, *this, NumOperands);
  P.OpBegin = static_cast<std::uint32_t>(Ops.size());

  bool HasAlias = false, UsesDest = false;
  std::string Diag;
  // Lines are separated by the two characters '\' 'n'; a trailing
  // separator ends the template without an empty last line. Literal bytes
  // go straight to the pool; each op takes those since the previous op.
  std::string_view Tmpl = R.EmitTemplate;
  while (!Tmpl.empty() && Diag.empty()) {
    std::size_t Split = Tmpl.find("\\n");
    std::string_view Line = Tmpl.substr(0, Split);
    Tmpl = Split == std::string_view::npos ? std::string_view()
                                           : Tmpl.substr(Split + 2);
    bool IsAlias = !Line.empty() && Line[0] == '=';
    std::size_t LineBegin = Ops.size(), LitBegin = Pool.size();
    if (IsAlias) {
      Line.remove_prefix(1);
      push(EmitOp::BeginAlias, 0, LitBegin);
    }
    for (std::size_t I = 0; I < Line.size() && Diag.empty(); ++I) {
      char C = Line[I];
      if (C != '%') {
        Pool.push_back(C);
        continue;
      }
      auto Rule = [&] { return "rule #" + std::to_string(R.ExtNumber); };
      if (++I >= Line.size()) {
        Diag = "dangling '%' in template of " + Rule();
        break;
      }
      char D = Line[I];
      if (D == '%') {
        Pool.push_back('%');
      } else if (D >= '1' && D <= '9' &&
                 static_cast<unsigned>(D - '1') >= NumOperands) {
        Diag = "template of " + Rule() + " references operand %" + D +
               " but only " + std::to_string(NumOperands) + " operands exist";
      } else if (D == 'c' || (D >= '0' && D <= '9')) {
        EmitOp::KindT K = D == 'c'   ? EmitOp::Payload
                          : D == '0' ? EmitOp::Dest
                                     : EmitOp::Operand;
        UsesDest |= K == EmitOp::Dest;
        push(K, K == EmitOp::Operand ? D - '1' : 0, LitBegin);
        LitBegin = Pool.size();
      } else {
        Diag = "unknown template placeholder '%" + std::string(1, D) +
               "' in " + Rule();
      }
    }
    if (!Diag.empty()) {
      // The failing line emits nothing; the lines before it do.
      Ops.resize(LineBegin);
      LitBegin = Pool.size();
      Pool += Diag;
      push(EmitOp::Fail, 0, LitBegin);
      break;
    }
    if (!IsAlias) {
      Pool.push_back('\n');
      push(EmitOp::EndLine, 0, LitBegin);
      continue;
    }
    HasAlias = true;
    std::size_t Placeholders = Ops.size() - LineBegin - 1;
    std::size_t TailLen = Pool.size() - LitBegin;
    EmitOp &Last = Ops.back();
    if (Placeholders == 0 && TailLen <= 0xFFFF) {
      // "=literal" is a value in the pool.
      Ops.back() = {EmitOp::AliasLiteral, 0,
                    static_cast<std::uint16_t>(TailLen),
                    static_cast<std::uint32_t>(LitBegin)};
    } else if (Placeholders == 1 && Last.Kind != EmitOp::Literal &&
               Last.Len == 0 && TailLen == 0) {
      // "=%0", "=%N" and "=%c" are values, not rendered text.
      EmitOp::KindT K = Last.Kind == EmitOp::Dest      ? EmitOp::AliasDest
                        : Last.Kind == EmitOp::Operand ? EmitOp::AliasOperand
                                                       : EmitOp::AliasPayload;
      Ops[LineBegin] = {K, Last.Arg, 0, 0};
      Ops.pop_back();
    } else {
      push(EmitOp::EndAlias, 0, LitBegin);
    }
  }
  if (!HasAlias && Diag.empty())
    push(UsesDest                      ? EmitOp::AliasDest
         : Leaves.size() > P.LeafBegin ? EmitOp::AliasOperand
                                       : EmitOp::AliasLiteral,
         0, Pool.size());
  P.OpEnd = static_cast<std::uint32_t>(Ops.size());
  // A lone static value op leaves the range (an AliasLiteral stays in Ops
  // to hold the text) and becomes the program's value.
  const EmitOp &Last = Ops.back();
  if (P.OpEnd - P.OpBegin == 1 && Last.Kind == EmitOp::AliasLiteral) {
    P.Value = {EmitValue::Literal, P.OpBegin};
    P.OpEnd = P.OpBegin;
  } else if (P.OpEnd - P.OpBegin == 1 && Last.Kind == EmitOp::AliasOperand) {
    const EmitLeaf &L = Leaves[P.LeafBegin + Last.Arg];
    if (L.PathLen == 0)
      P.CopyNt = L.Nt;
    else
      P.Value = {EmitValue::Forward, P.LeafBegin + Last.Arg};
    P.OpEnd = P.OpBegin;
  }
  Programs.push_back(P);
}

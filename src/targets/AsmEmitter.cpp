//===- targets/AsmEmitter.cpp - Template-driven code emission --------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "targets/AsmEmitter.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstring>
#include <vector>

using namespace odburg;
using namespace odburg::targets;

namespace {

using Slot = EmitValue;

/// An append cursor over S, which is kept at least Slack bytes longer than
/// the Len bytes written, so a short copy moves one whole 16-byte block;
/// finish() trims S to Len.
struct Sink {
  std::string &S;
  std::size_t Len;

  /// Appends \p Src[Off, Off + N); \p Src (the padded literal pool, or a
  /// sink's string, possibly this one's, hence memmove) is readable 16
  /// bytes past Off.
  void write(const std::string &Src, std::size_t Off, std::size_t N) {
    char *P = reserve(N);
    std::memmove(P, Src.data() + Off, 16);
    if (N > 16)
      std::memcpy(P, Src.data() + Off, N);
    Len += N;
  }
  void putVreg(std::uint32_t N) {
    char *P = reserve(12);
    std::memcpy(P, "%v", 2);
    Len += std::to_chars(P + 2, P + 12, N).ptr - P;
  }
  void putPayload(const ir::Node &N) {
    if (const char *Sym = N.symbol())
      return write(Sym, std::strlen(Sym));
    char *P = reserve(20);
    Len += std::to_chars(P, P + 20, N.value()).ptr - P;
  }
  void write(const void *Src, std::size_t N) {
    std::memcpy(reserve(N), Src, N);
    Len += N;
  }
  void finish() { S.resize(Len); }

  static constexpr std::size_t Slack = 32;
  /// Growth fills the capacity the string has, which it doubles.
  char *reserve(std::size_t N) {
    if (S.size() - Len < N + Slack)
      S.resize(std::max(Len + N + Slack, S.capacity()));
    return S.data() + Len;
  }
};

/// Runs compiled templates over the matches of one function. \p Slots
/// holds one value per (node, source nonterminal), at node id * number of
/// source nonterminals + nonterminal; \p Arena holds composite '=' lines.
class Emitter {
public:
  Emitter(const Grammar &G, const ir::IRFunction &F, Slot *Slots,
          std::string &Arena, AsmBuffer &Out)
      : T(G.emitTables()), F(F), Slots(Slots),
        NumNts(G.numSourceNonterminals()), Text{Out.Text, Out.Text.size()},
        Arena{Arena, 0}, Out(Out) {}

  /// Emits \p M; returns the Fail op that stopped it, or null.
  const EmitOp *emitMatch(const Match &M) {
    const EmitProgram &P = T.Programs[M.Source];
    std::uint32_t DestVreg = ~0u; // %0's vreg, taken on first use.
    auto Dest = [&] {
      assert(NextVreg < Slot::MaxVal && "too many vregs");
      return DestVreg == ~0u ? DestVreg = NextVreg++ : DestVreg;
    };
    Slot Value = P.CopyNt == InvalidNonterminal ? P.Value
                                                : slot(M.Where, P.CopyNt);
    Sink *D = &Text;
    std::size_t AliasBegin = 0;
    for (std::uint32_t I = P.OpBegin; I != P.OpEnd; ++I) {
      const EmitOp &Op = T.Ops[I];
      // Ops up to EndAlias write their literal to the current output; the
      // Alias* ops and Fail keep it as data.
      if (Op.Kind <= EmitOp::EndAlias)
        D->write(T.Pool, Op.Off, Op.Len);
      switch (Op.Kind) {
      case EmitOp::Literal:
        break;
      case EmitOp::Dest:
        D->putVreg(Dest());
        break;
      case EmitOp::Operand:
        append(*D, M.Where, {Slot::Forward, P.LeafBegin + Op.Arg});
        break;
      case EmitOp::Payload:
        D->putPayload(*M.Where);
        break;
      case EmitOp::EndLine:
        ++Out.Instructions;
        break;
      case EmitOp::BeginAlias:
        AliasBegin = Arena.Len;
        assert(AliasBegin <= Slot::MaxVal && "alias arena too large");
        Arena.write(&AliasBegin, 4); // Room for the length EndAlias sets.
        D = &Arena;
        break;
      case EmitOp::EndAlias: {
        auto Len = static_cast<std::uint32_t>(Arena.Len - AliasBegin - 4);
        std::memcpy(Arena.S.data() + AliasBegin, &Len, 4);
        Value = {Slot::Composite, static_cast<std::uint32_t>(AliasBegin)};
        D = &Text;
        break;
      }
      case EmitOp::AliasLiteral:
        Value = {Slot::Literal, I};
        break;
      case EmitOp::AliasDest:
        Value = {Slot::Vreg, Dest()};
        break;
      case EmitOp::AliasOperand: {
        const EmitLeaf &L = T.Leaves[P.LeafBegin + Op.Arg];
        Value = L.PathLen ? Slot{Slot::Forward, P.LeafBegin + Op.Arg}
                          : slot(M.Where, L.Nt);
        break;
      }
      case EmitOp::AliasPayload:
        Value = {Slot::Payload, M.Where->id()};
        break;
      case EmitOp::Fail:
        return &Op;
      }
    }
    slot(M.Where, M.Lhs) = Value;
    return nullptr;
  }

  void finish() { Text.finish(); }

private:
  Slot &slot(const ir::Node *N, NonterminalId Nt) const {
    assert(Nt < NumNts && N->id() < F.size() && "slot outside the function");
    return Slots[static_cast<std::size_t>(N->id()) * NumNts + Nt];
  }

  /// Appends the text of \p V, a value at node \p N, to \p D, which may
  /// be the arena itself. Forwards are followed first; each one leads
  /// further down the tree, so this ends.
  void append(Sink &D, const ir::Node *N, Slot V) const {
    static const std::string Unset = std::string("?").append(16, '\0');
    while (V.Kind == Slot::Forward) {
      const EmitLeaf &L = T.Leaves[V.Val];
      for (unsigned K = 0; K < L.PathLen; ++K)
        N = N->child(T.Paths[L.PathOff + K]);
      V = slot(N, L.Nt);
    }
    switch (V.Kind) {
    case Slot::Missing:
      return D.write(Unset, 0, 1);
    case Slot::Vreg:
      return D.putVreg(V.Val);
    case Slot::Payload:
      return D.putPayload(*F.nodes()[V.Val]);
    case Slot::Literal:
      return D.write(T.Pool, T.Ops[V.Val].Off, T.Ops[V.Val].Len);
    case Slot::Composite: {
      std::uint32_t Len = 0;
      std::memcpy(&Len, Arena.S.data() + V.Val, 4);
      return D.write(Arena.S, V.Val + 4, Len);
    }
    }
  }

  const EmitTables &T;
  const ir::IRFunction &F;
  Slot *Slots;
  unsigned NumNts;
  Sink Text, Arena;
  AsmBuffer &Out;
  std::uint32_t NextVreg = 0;
};

} // namespace

Error odburg::targets::emitAsm(const Grammar &G, const ir::IRFunction &F,
                               const Selection &S, AsmBuffer &Out) {
  assert(G.isFinalized() && "templates are compiled by finalize()");
  assert(F.size() <= Slot::MaxVal && "function too large for emission");
  // Grown to the largest function this thread has emitted, then reused.
  thread_local std::vector<Slot> Slots;
  thread_local std::string Arena;
  std::size_t NumSlots =
      static_cast<std::size_t>(F.size()) * G.numSourceNonterminals();
  if (Slots.size() < NumSlots) {
    Slots = {}; // Allocate exactly, without a resize's doubling.
    Slots.resize(NumSlots);
  }
  std::memset(static_cast<void *>(Slots.data()), 0, // All Missing.
              NumSlots * sizeof(Slot));
  Emitter E(G, F, Slots.data(), Arena, Out);
  const EmitOp *Failed = nullptr;
  for (const Match &M : S.Matches)
    if ((Failed = E.emitMatch(M)))
      break;
  E.finish();
  if (!Failed)
    return Error::success();
  return Error::make(G.emitTables().Pool.substr(Failed->Off, Failed->Len));
}

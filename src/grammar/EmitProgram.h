//===- grammar/EmitProgram.h - Compiled emission templates ----------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emission templates compiled to flat op lists. Grammar::finalize()
/// compiles every source rule's template once; the emitter
/// (targets/AsmEmitter.h) runs the ops and never re-parses template text.
///
/// Template language (inside the rule's quoted string):
///   \n        instruction separator (two characters, backslash + 'n');
///             a trailing one adds no line, two in a row an empty line
///   =...      a line starting with '=' defines the match's *operand
///             value* (what parent rules see as %N) instead of emitting
///             an instruction — used for constants, addressing modes and
///             condition codes; the last such line wins
///   %0        the match's destination: a fresh virtual register %vN,
///             one per match however often it appears; also the operand
///             value if no '=' line is present
///   %1..%9    operand values of the rule pattern's nonterminal leaves,
///             numbered left to right; a value never set renders as '?'
///   %c        the matched node's payload (symbol if present, else the
///             integer value)
///   %%        a literal '%'
///
/// An empty template passes operand 1 through (the usual chain-rule case).
///
//===----------------------------------------------------------------------===//

#ifndef ODBURG_GRAMMAR_EMITPROGRAM_H
#define ODBURG_GRAMMAR_EMITPROGRAM_H

#include "grammar/Ids.h"

#include <cstdint>
#include <string>
#include <vector>

namespace odburg {

struct SourceRule;

/// A match's operand value: what the templates of parent rules see as
/// %N. Compiled templates hold the static kinds (Literal, Forward); the
/// emitter keeps one value per (node, source nonterminal).
struct EmitValue {
  enum KindT : std::uint32_t {
    Missing,   ///< Never set; prints '?'.
    Vreg,      ///< Val is a vreg number.
    Payload,   ///< Val is the id of the node whose payload prints.
    Literal,   ///< Val indexes the AliasLiteral op that holds the text.
    Composite, ///< Val is an offset into the emitter's arena.
    Forward,   ///< Val indexes Leaves: the value of that pattern leaf,
               ///< reached from this value's node (always below it).
  };
  static constexpr std::uint32_t MaxVal = (1u << 29) - 1;
  std::uint32_t Kind : 3 = Missing;
  std::uint32_t Val : 29 = 0;
};

/// One step of a compiled template. Kinds up to EndAlias first write the
/// literal bytes Pool[Off, Off + Len) to the current output and then act;
/// the later kinds keep the literal as data. Ops of an instruction line
/// write the output text, and the line ends with EndLine; ops of an '='
/// alias line build the match's operand value instead.
struct EmitOp {
  enum KindT : std::uint8_t {
    Literal,      ///< Nothing after the literal.
    Dest,         ///< %0, the match's destination vreg.
    Operand,      ///< %1..%9: the rule's operand Arg (0-based).
    Payload,      ///< %c, the matched node's symbol or value.
    EndLine,      ///< Ends an instruction line; the literal ends in '\n'.
    BeginAlias,   ///< Starts a composite '=' line (no literal).
    EndAlias,     ///< Ends it: the rendered text becomes the value.
    AliasLiteral, ///< A whole '=' line of literal bytes.
    AliasDest,    ///< A whole '=' line "%0".
    AliasOperand, ///< A whole '=' line "%N": a Forward to the leaf, or a
                  ///< copy of the same node's value for a pattern-root leaf.
    AliasPayload, ///< A whole '=' line "%c", kept as the node.
    Fail,         ///< Malformed placeholder; the literal is the message.
  };
  KindT Kind = Literal;
  std::uint8_t Arg = 0;
  std::uint16_t Len = 0;
  std::uint32_t Off = 0;
};

/// A nonterminal leaf of a rule pattern, reached from the pattern root by
/// the child indices Paths[PathOff, PathOff + PathLen).
struct EmitLeaf {
  NonterminalId Nt = InvalidNonterminal;
  std::uint16_t PathLen = 0;
  std::uint32_t PathOff = 0;
};

/// The compiled template of one source rule. A template without '=' lines
/// ends with an Alias op all the same: AliasDest if it uses %0, else
/// AliasOperand 0 (the pass-through of empty chain templates), else an
/// empty AliasLiteral.
struct EmitProgram {
  std::uint32_t OpBegin = 0, OpEnd = 0;
  /// Leaves usable as %1..%9 (at most 9), in left-to-right order.
  std::uint32_t LeafBegin = 0;
  /// A template that writes nothing and whose value is static (empty,
  /// "=literal" or "=%N") runs no ops: its value is Value or, when CopyNt
  /// is set (a pattern-root leaf), the same node's value for CopyNt.
  EmitValue Value;
  NonterminalId CopyNt = InvalidNonterminal;
};

/// Every compiled template of a grammar, in flat arrays.
struct EmitTables {
  /// One program per source rule, indexed by RuleId.
  std::vector<EmitProgram> Programs;
  std::vector<EmitOp> Ops;
  std::vector<EmitLeaf> Leaves;
  std::vector<std::uint16_t> Paths;
  /// Literal bytes and Fail messages, followed by PoolPadding zero bytes
  /// so that a reader may copy any literal as whole 16-byte blocks.
  std::string Pool;
  static constexpr std::size_t PoolPadding = 16;

  /// Compiles the templates of \p Rules, one program per rule. A
  /// malformed placeholder compiles to a Fail op carrying the diagnostic;
  /// the lines before it still emit.
  void compile(const std::vector<SourceRule> &Rules);

private:
  void compile(const SourceRule &R);
  /// Appends an op whose literal is Pool[LitBegin, end), split into
  /// Literal ops as its 16-bit length requires.
  void push(EmitOp::KindT Kind, std::uint8_t Arg, std::size_t LitBegin);
};

} // namespace odburg

#endif // ODBURG_GRAMMAR_EMITPROGRAM_H

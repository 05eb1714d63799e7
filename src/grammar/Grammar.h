//===- grammar/Grammar.h - Tree grammars for instruction selection --------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tree grammars in the burg tradition. A grammar consists of operators
/// (IR opcodes with fixed arity), nonterminals, and rules. Source rules may
/// have arbitrarily nested patterns and optional dynamic-cost hooks; the
/// grammar converts itself to *normal form* (only chain rules `n ← n1` and
/// base rules `n ← Op(n1,…,nk)`) by introducing helper nonterminals, which
/// is the form all labeling engines consume.
///
//===----------------------------------------------------------------------===//

#ifndef ODBURG_GRAMMAR_GRAMMAR_H
#define ODBURG_GRAMMAR_GRAMMAR_H

#include "grammar/EmitProgram.h"
#include "grammar/Ids.h"
#include "support/Arena.h"
#include "support/Cost.h"
#include "support/Error.h"
#include "support/SmallVector.h"

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace odburg {

/// A node of a source-rule pattern: either a nonterminal leaf or an operator
/// with child patterns. Arena-allocated, owned by the Grammar.
struct PatternNode {
  /// The operator, or InvalidOperator for a nonterminal leaf.
  OperatorId Op = InvalidOperator;
  /// The nonterminal, for a leaf.
  NonterminalId Nt = InvalidNonterminal;
  /// Child patterns (operator nodes only); size equals the operator arity.
  PatternNode **Children = nullptr;
  unsigned NumChildren = 0;

  bool isLeaf() const { return Op == InvalidOperator; }
};

/// A rule as written by the grammar author.
struct SourceRule {
  /// Left-hand-side nonterminal.
  NonterminalId Lhs = InvalidNonterminal;
  /// Right-hand-side pattern (nonterminal leaf => chain rule).
  const PatternNode *Pattern = nullptr;
  /// Fixed cost of applying the rule (dynamic hooks add to this).
  Cost FixedCost = Cost::zero();
  /// Dynamic-cost hook, or InvalidDynCost. Hook outcomes add to FixedCost;
  /// Cost::infinity() means "not applicable here".
  DynCostId DynHook = InvalidDynCost;
  /// External rule number (unique, 1-based; auto-assigned if not given).
  unsigned ExtNumber = 0;
  /// Emission template (see grammar/EmitProgram.h for the placeholder
  /// language); may be empty.
  std::string EmitTemplate;
};

/// A rule in normal form. Exactly one of the chain/base interpretations
/// applies, see isChain().
struct NormRule {
  NonterminalId Lhs = InvalidNonterminal;
  /// Chain rules: the right-hand-side nonterminal; InvalidNonterminal for
  /// base rules.
  NonterminalId ChainRhs = InvalidNonterminal;
  /// Base rules: the operator; InvalidOperator for chain rules.
  OperatorId Op = InvalidOperator;
  /// Base rules: operand nonterminals, one per operator arity slot.
  SmallVector<NonterminalId, 2> Operands;
  /// Cost carried by this normal rule. When a source rule is split, the
  /// outermost fragment carries the full source cost; inner fragments cost 0.
  Cost FixedCost = Cost::zero();
  /// Dynamic hook; only ever set on the outermost fragment of a split.
  DynCostId DynHook = InvalidDynCost;
  /// The source rule this normal rule was derived from.
  RuleId Source = InvalidRule;
  /// True if firing this rule completes the source rule's pattern match
  /// (always true for unsplit rules; true only for the outermost fragment
  /// of a split rule). Only final rules trigger emission.
  bool IsFinal = true;

  NormRule() = default;
  NormRule(const NormRule &) = default;
  NormRule(NormRule &&) noexcept;
  NormRule &operator=(const NormRule &) = default;
  NormRule &operator=(NormRule &&) = default;

  bool isChain() const { return ChainRhs != InvalidNonterminal; }
};

/// Aggregate statistics, as reported in grammar tables of the papers in
/// this line of work.
struct GrammarStats {
  unsigned SourceRules = 0;
  unsigned NormRules = 0;
  unsigned ChainRules = 0;
  unsigned BaseRules = 0;
  unsigned DynCostRules = 0;
  unsigned Operators = 0;
  unsigned Nonterminals = 0;
  unsigned HelperNonterminals = 0;
  unsigned MaxArity = 0;
};

/// A tree grammar. Build programmatically (addOperator/addNonterminal/
/// addRule + finalize) or from text via GrammarParser. After finalize() the
/// normal form and the per-operator rule indices are available and the
/// grammar is immutable.
class Grammar {
public:
  Grammar() = default;
  Grammar(Grammar &&) = default;
  Grammar &operator=(Grammar &&) = default;

  /// \name Construction
  /// @{

  /// Adds an operator with the given \p Arity; returns its id. Re-adding an
  /// existing name with the same arity returns the existing id.
  OperatorId addOperator(std::string_view Name, unsigned Arity);

  /// Adds (or finds) a nonterminal.
  NonterminalId addNonterminal(std::string_view Name);

  /// Adds (or finds) a dynamic-cost hook name.
  DynCostId addDynHook(std::string_view Name);

  /// Creates a pattern leaf for nonterminal \p Nt.
  PatternNode *makeLeaf(NonterminalId Nt);

  /// Creates a pattern node for \p Op over \p Children (must match arity).
  PatternNode *makeNode(OperatorId Op,
                        const SmallVectorImpl<PatternNode *> &Children);

  /// Adds a source rule; returns its id. \p ExtNumber 0 = auto-assign.
  RuleId addRule(NonterminalId Lhs, const PatternNode *Pattern, Cost FixedCost,
                 DynCostId DynHook = InvalidDynCost, unsigned ExtNumber = 0,
                 std::string EmitTemplate = {});

  /// Sets the start nonterminal (defaults to the LHS of the first rule).
  void setStart(NonterminalId Nt) { StartNt = Nt; }

  /// Validates the grammar, converts to normal form and builds indices.
  /// After success the grammar is ready for labeling engines.
  Error finalize();

  /// @}
  /// \name Queries (valid after finalize())
  /// @{

  bool isFinalized() const { return Finalized; }

  NonterminalId startNt() const { return StartNt; }

  unsigned numOperators() const { return static_cast<unsigned>(OpNames.size()); }
  unsigned numNonterminals() const {
    return static_cast<unsigned>(NtNames.size());
  }
  /// Nonterminals written in source rules; they have ids below this, the
  /// helpers of the normal form at or above it.
  unsigned numSourceNonterminals() const { return NumSourceNts; }
  unsigned numSourceRules() const {
    return static_cast<unsigned>(SourceRules.size());
  }
  unsigned numNormRules() const {
    return static_cast<unsigned>(NormRules.size());
  }
  unsigned numDynHooks() const {
    return static_cast<unsigned>(DynHookNames.size());
  }

  const std::string &operatorName(OperatorId Op) const { return OpNames[Op]; }
  unsigned operatorArity(OperatorId Op) const { return OpArities[Op]; }
  const std::string &nonterminalName(NonterminalId Nt) const {
    return NtNames[Nt];
  }
  const std::string &dynHookName(DynCostId H) const { return DynHookNames[H]; }

  /// Looks up an operator by name; InvalidOperator if absent.
  OperatorId findOperator(std::string_view Name) const;
  /// Looks up a nonterminal by name; InvalidNonterminal if absent.
  NonterminalId findNonterminal(std::string_view Name) const;

  const SourceRule &sourceRule(RuleId R) const { return SourceRules[R]; }
  /// Every source rule's compiled emission template.
  const EmitTables &emitTables() const { return Emit; }
  const NormRule &normRule(RuleId R) const { return NormRules[R]; }

  /// Normal-form base rules applicable at operator \p Op.
  const SmallVectorImpl<RuleId> &baseRulesFor(OperatorId Op) const {
    return BaseRulesByOp[Op];
  }

  /// All normal-form chain rules.
  const std::vector<RuleId> &chainRules() const { return ChainRuleIds; }

  /// Normal-form rules with dynamic hooks at operator \p Op, in a fixed
  /// order. The on-demand automaton evaluates these per node to build its
  /// transition key (see core/OnDemandAutomaton.h).
  const SmallVectorImpl<RuleId> &dynRulesFor(OperatorId Op) const {
    return DynRulesByOp[Op];
  }

  /// True if any rule carries a dynamic-cost hook.
  bool hasDynCosts() const { return NumDynRules != 0; }

  GrammarStats stats() const;

  /// Content fingerprint over everything labeling observes: operators
  /// (names + arities), nonterminals, dynamic-cost hook names, the start
  /// nonterminal, emission templates, and the full normal form. Two
  /// grammars with equal fingerprints label and emit identically; a
  /// changed rule, cost, or template changes the fingerprint. This is the
  /// registry's keying primitive (registry/GrammarRegistry.h) and the
  /// identity stamped into warm-automaton snapshots.
  std::uint64_t fingerprint() const;

  /// Renders a normal-form rule as text, for diagnostics and tests.
  std::string normRuleToString(RuleId R) const;

  /// @}

private:
  Error validate() const;
  Error buildNormalForm();
  /// Recursively splits \p P, returning the nonterminal that derives it.
  NonterminalId splitPattern(const PatternNode *P, RuleId Source);

  std::vector<std::string> OpNames;
  std::vector<unsigned> OpArities;
  std::vector<std::string> NtNames;
  std::vector<bool> NtIsHelper;
  std::vector<std::string> DynHookNames;
  std::unordered_map<std::string, OperatorId> OpByName;
  std::unordered_map<std::string, NonterminalId> NtByName;
  std::unordered_map<std::string, DynCostId> DynHookByName;

  std::vector<SourceRule> SourceRules;
  std::vector<NormRule> NormRules;
  std::vector<SmallVector<RuleId, 8>> BaseRulesByOp;
  std::vector<SmallVector<RuleId, 2>> DynRulesByOp;
  std::vector<RuleId> ChainRuleIds;
  unsigned NumDynRules = 0;
  unsigned NumSourceNts = 0;
  EmitTables Emit;

  NonterminalId StartNt = InvalidNonterminal;
  Arena PatternArena;
  unsigned NextAutoExtNumber = 1;
  bool Finalized = false;
};

} // namespace odburg

#endif // ODBURG_GRAMMAR_GRAMMAR_H

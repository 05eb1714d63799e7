//===- grammar/Grammar.cpp - Tree grammars ---------------------------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "grammar/Grammar.h"

#include "support/ErrorHandling.h"
#include "support/Hashing.h"
#include "support/StringUtil.h"

#include <algorithm>

using namespace odburg;

// Out of line on purpose: with it inlined into the std::vector<NormRule>
// reallocation in buildNormalForm, GCC 12 loses track of Operands' heap
// buffer and raises a false -Wmismatched-new-delete on SmallVector's free.
NormRule::NormRule(NormRule &&) noexcept = default;

OperatorId Grammar::addOperator(std::string_view Name, unsigned Arity) {
  assert(!Finalized && "grammar is frozen");
  auto It = OpByName.find(std::string(Name));
  if (It != OpByName.end()) {
    assert(OpArities[It->second] == Arity && "operator re-added with new arity");
    return It->second;
  }
  OperatorId Id = static_cast<OperatorId>(OpNames.size());
  OpNames.emplace_back(Name);
  OpArities.push_back(Arity);
  OpByName.emplace(std::string(Name), Id);
  return Id;
}

NonterminalId Grammar::addNonterminal(std::string_view Name) {
  assert(!Finalized && "grammar is frozen");
  auto It = NtByName.find(std::string(Name));
  if (It != NtByName.end())
    return It->second;
  NonterminalId Id = static_cast<NonterminalId>(NtNames.size());
  NtNames.emplace_back(Name);
  NtIsHelper.push_back(false);
  NtByName.emplace(std::string(Name), Id);
  return Id;
}

DynCostId Grammar::addDynHook(std::string_view Name) {
  assert(!Finalized && "grammar is frozen");
  auto It = DynHookByName.find(std::string(Name));
  if (It != DynHookByName.end())
    return It->second;
  DynCostId Id = static_cast<DynCostId>(DynHookNames.size());
  DynHookNames.emplace_back(Name);
  DynHookByName.emplace(std::string(Name), Id);
  return Id;
}

PatternNode *Grammar::makeLeaf(NonterminalId Nt) {
  PatternNode *P = PatternArena.create<PatternNode>();
  P->Nt = Nt;
  return P;
}

PatternNode *Grammar::makeNode(OperatorId Op,
                               const SmallVectorImpl<PatternNode *> &Children) {
  assert(Children.size() == operatorArity(Op) &&
         "pattern child count does not match operator arity");
  PatternNode *P = PatternArena.create<PatternNode>();
  P->Op = Op;
  P->NumChildren = Children.size();
  if (P->NumChildren) {
    P->Children = PatternArena.allocateArray<PatternNode *>(P->NumChildren);
    std::copy(Children.begin(), Children.end(), P->Children);
  }
  return P;
}

RuleId Grammar::addRule(NonterminalId Lhs, const PatternNode *Pattern,
                        Cost FixedCost, DynCostId DynHook, unsigned ExtNumber,
                        std::string EmitTemplate) {
  assert(!Finalized && "grammar is frozen");
  assert(FixedCost.isFinite() && "rules must have finite fixed costs");
  SourceRule R;
  R.Lhs = Lhs;
  R.Pattern = Pattern;
  R.FixedCost = FixedCost;
  R.DynHook = DynHook;
  R.ExtNumber = ExtNumber ? ExtNumber : NextAutoExtNumber;
  NextAutoExtNumber = std::max(NextAutoExtNumber, R.ExtNumber) + 1;
  R.EmitTemplate = std::move(EmitTemplate);
  RuleId Id = static_cast<RuleId>(SourceRules.size());
  SourceRules.push_back(std::move(R));
  if (StartNt == InvalidNonterminal)
    StartNt = Lhs;
  return Id;
}

OperatorId Grammar::findOperator(std::string_view Name) const {
  auto It = OpByName.find(std::string(Name));
  return It == OpByName.end() ? InvalidOperator : It->second;
}

NonterminalId Grammar::findNonterminal(std::string_view Name) const {
  auto It = NtByName.find(std::string(Name));
  return It == NtByName.end() ? InvalidNonterminal : It->second;
}

/// Checks pattern well-formedness recursively.
static Error checkPattern(const Grammar &G, const PatternNode *P) {
  if (P->isLeaf()) {
    if (P->Nt == InvalidNonterminal)
      return Error::make("pattern leaf has no nonterminal");
    return Error::success();
  }
  if (P->NumChildren != G.operatorArity(P->Op))
    return Error::make("pattern for operator '" + G.operatorName(P->Op) +
                       "' has wrong child count");
  for (unsigned I = 0; I < P->NumChildren; ++I)
    if (Error E = checkPattern(G, P->Children[I]))
      return E;
  return Error::success();
}

Error Grammar::validate() const {
  if (SourceRules.empty())
    return Error::make("grammar has no rules");
  if (StartNt == InvalidNonterminal)
    return Error::make("grammar has no start nonterminal");
  for (const SourceRule &R : SourceRules) {
    if (Error E = checkPattern(*this, R.Pattern))
      return E;
    if (R.Pattern->isLeaf() && R.Pattern->Nt == R.Lhs)
      return Error::make("self-chain rule '" + NtNames[R.Lhs] + ": " +
                         NtNames[R.Lhs] + "' is useless");
  }
  // Every nonterminal used in a pattern must be derivable (appear as LHS).
  std::vector<bool> HasRule(NtNames.size(), false);
  for (const SourceRule &R : SourceRules)
    HasRule[R.Lhs] = true;
  for (const SourceRule &R : SourceRules) {
    SmallVector<const PatternNode *, 8> Stack;
    Stack.push_back(R.Pattern);
    while (!Stack.empty()) {
      const PatternNode *P = Stack.back();
      Stack.pop_back();
      if (P->isLeaf()) {
        if (!HasRule[P->Nt])
          return Error::make("nonterminal '" + NtNames[P->Nt] +
                             "' is used but has no rules");
        continue;
      }
      for (unsigned I = 0; I < P->NumChildren; ++I)
        Stack.push_back(P->Children[I]);
    }
  }
  return Error::success();
}

NonterminalId Grammar::splitPattern(const PatternNode *P, RuleId Source) {
  assert(!P->isLeaf() && "splitPattern on a leaf");
  // Helper nonterminals get reserved names that the parser rejects, so they
  // cannot collide with user nonterminals.
  std::string Name =
      "$h" + std::to_string(NtNames.size()) + "." +
      std::to_string(SourceRules[Source].ExtNumber);
  NonterminalId Helper = addNonterminal(Name);
  NtIsHelper[Helper] = true;

  NormRule NR;
  NR.Lhs = Helper;
  NR.Op = P->Op;
  NR.FixedCost = Cost::zero();
  NR.Source = Source;
  NR.IsFinal = false;
  for (unsigned I = 0; I < P->NumChildren; ++I) {
    const PatternNode *C = P->Children[I];
    NR.Operands.push_back(C->isLeaf() ? C->Nt : splitPattern(C, Source));
  }
  NormRules.push_back(std::move(NR));
  return Helper;
}

Error Grammar::buildNormalForm() {
  NormRules.clear();
  for (RuleId Id = 0; Id < SourceRules.size(); ++Id) {
    const SourceRule &R = SourceRules[Id];
    const PatternNode *P = R.Pattern;
    NormRule NR;
    NR.Lhs = R.Lhs;
    NR.FixedCost = R.FixedCost;
    NR.DynHook = R.DynHook;
    NR.Source = Id;
    NR.IsFinal = true;
    if (P->isLeaf()) {
      NR.ChainRhs = P->Nt;
      NormRules.push_back(std::move(NR));
      continue;
    }
    NR.Op = P->Op;
    for (unsigned I = 0; I < P->NumChildren; ++I) {
      const PatternNode *C = P->Children[I];
      // Inner operator subpatterns become 0-cost helper rules; the final
      // fragment keeps the cost and the dynamic hook (the hook inspects the
      // whole matched subtree, which is rooted here).
      NR.Operands.push_back(C->isLeaf() ? C->Nt : splitPattern(C, Id));
    }
    NormRules.push_back(std::move(NR));
  }

  // Build per-operator indices.
  BaseRulesByOp.assign(OpNames.size(), {});
  DynRulesByOp.assign(OpNames.size(), {});
  ChainRuleIds.clear();
  NumDynRules = 0;
  for (RuleId Id = 0; Id < NormRules.size(); ++Id) {
    const NormRule &NR = NormRules[Id];
    if (NR.isChain()) {
      ChainRuleIds.push_back(Id);
      if (NR.DynHook != InvalidDynCost)
        return Error::make("dynamic costs on chain rules are not supported "
                           "(rule for '" +
                           NtNames[NR.Lhs] + "')");
      continue;
    }
    BaseRulesByOp[NR.Op].push_back(Id);
    if (NR.DynHook != InvalidDynCost) {
      DynRulesByOp[NR.Op].push_back(Id);
      ++NumDynRules;
    }
  }
  return Error::success();
}

Error Grammar::finalize() {
  assert(!Finalized && "finalize() called twice");
  if (Error E = validate())
    return E;
  NumSourceNts = numNonterminals();
  if (Error E = buildNormalForm())
    return E;
  Emit.compile(SourceRules);
  Finalized = true;
  return Error::success();
}

GrammarStats Grammar::stats() const {
  GrammarStats S;
  S.SourceRules = numSourceRules();
  S.NormRules = numNormRules();
  S.Operators = numOperators();
  S.Nonterminals = numNonterminals();
  for (bool H : NtIsHelper)
    S.HelperNonterminals += H;
  for (const NormRule &R : NormRules) {
    if (R.isChain())
      ++S.ChainRules;
    else
      ++S.BaseRules;
  }
  for (const SourceRule &R : SourceRules)
    S.DynCostRules += R.DynHook != InvalidDynCost;
  for (unsigned A : OpArities)
    S.MaxArity = std::max(S.MaxArity, A);
  return S;
}

std::uint64_t Grammar::fingerprint() const {
  assert(Finalized && "fingerprint() requires a finalized grammar");
  // Hash exactly what the labeling engines and the emitter consume: the
  // normal form plus the name/arity tables it indexes into. Helper-
  // nonterminal naming is deterministic in source-rule order, so two
  // parses of the same text always agree.
  std::uint64_t H = 0x0DB09E06u; // Distinct seed from the tables formats.
  H = hashCombine(H, OpNames.size());
  for (std::size_t I = 0; I < OpNames.size(); ++I) {
    H = hashCombine(H, hashString(OpNames[I]));
    H = hashCombine(H, OpArities[I]);
  }
  H = hashCombine(H, NtNames.size());
  for (const std::string &N : NtNames)
    H = hashCombine(H, hashString(N));
  H = hashCombine(H, DynHookNames.size());
  for (const std::string &N : DynHookNames)
    H = hashCombine(H, hashString(N));
  H = hashCombine(H, StartNt);
  H = hashCombine(H, NormRules.size());
  for (const NormRule &NR : NormRules) {
    H = hashCombine(H, NR.Lhs);
    H = hashCombine(H, NR.ChainRhs);
    H = hashCombine(H, NR.Op);
    H = hashCombine(H, NR.Operands.size());
    for (NonterminalId Nt : NR.Operands)
      H = hashCombine(H, Nt);
    H = hashCombine(H, NR.FixedCost.raw());
    H = hashCombine(H, NR.DynHook);
    H = hashCombine(H, NR.IsFinal);
    // Reduction follows NR.Source to the source rule's emission template
    // and external number, so they are identity too.
    const SourceRule &SR = SourceRules[NR.Source];
    H = hashCombine(H, SR.ExtNumber);
    H = hashCombine(H, hashString(SR.EmitTemplate));
  }
  return H;
}

std::string Grammar::normRuleToString(RuleId R) const {
  const NormRule &NR = NormRules[R];
  std::string Out = NtNames[NR.Lhs] + ": ";
  if (NR.isChain()) {
    Out += NtNames[NR.ChainRhs];
  } else {
    Out += OpNames[NR.Op];
    if (!NR.Operands.empty()) {
      Out += '(';
      for (unsigned I = 0; I < NR.Operands.size(); ++I) {
        if (I)
          Out += ',';
        Out += NtNames[NR.Operands[I]];
      }
      Out += ')';
    }
  }
  Out += " (" + std::to_string(NR.FixedCost.value()) + ")";
  if (NR.DynHook != InvalidDynCost)
    Out += " ?" + DynHookNames[NR.DynHook];
  Out += " [#" + std::to_string(SourceRules[NR.Source].ExtNumber) + "]";
  return Out;
}

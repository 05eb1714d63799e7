//===- grammar/Synthesize.cpp - Parameterized random grammars ---------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "grammar/Synthesize.h"

#include "support/RNG.h"
#include "support/SmallVector.h"

using namespace odburg;

namespace {

/// "<Prefix><I>", built by append: GCC 12 raises a false -Wrestrict on
/// the operator+ form.
std::string indexedName(char Prefix, unsigned I) {
  std::string Name(1, Prefix);
  Name += std::to_string(I);
  return Name;
}

} // namespace

Expected<Grammar> odburg::synthesizeGrammar(const SynthesisParams &P) {
  if (P.NumNts < 2 || P.NumLeafOps == 0)
    return Error::make("synthesis needs >= 2 nonterminals and a leaf "
                       "operator");
  RNG Rand(P.Seed);
  Grammar G;

  SmallVector<NonterminalId, 8> Nts;
  for (unsigned I = 0; I < P.NumNts; ++I)
    Nts.push_back(G.addNonterminal(indexedName('v', I)));

  SmallVector<OperatorId, 8> LeafOps, UnaryOps, BinaryOps;
  for (unsigned I = 0; I < P.NumLeafOps; ++I)
    LeafOps.push_back(G.addOperator(indexedName('L', I), 0));
  for (unsigned I = 0; I < P.NumUnaryOps; ++I)
    UnaryOps.push_back(G.addOperator(indexedName('U', I), 1));
  for (unsigned I = 0; I < P.NumBinaryOps; ++I)
    BinaryOps.push_back(G.addOperator(indexedName('B', I), 2));

  auto RandomNt = [&] { return Nts[Rand.nextBelow(Nts.size())]; };
  auto RandomCost = [&] {
    return Cost(static_cast<Cost::ValueType>(Rand.nextInRange(1, P.MaxCost)));
  };

  // The chain cycle v0 -> v1 -> … -> v0, each step cost 1: guarantees every
  // nonterminal derives every other (within NumNts steps) and bounds the
  // automaton's relative costs, so state enumeration terminates.
  for (unsigned I = 0; I < P.NumNts; ++I)
    G.addRule(Nts[I], G.makeLeaf(Nts[(I + 1) % P.NumNts]), Cost(1));

  // Every leaf operator derives one random nonterminal (plus v0 for the
  // first, so trees are always coverable from the start symbol).
  SmallVector<PatternNode *, 2> NoChildren;
  for (unsigned I = 0; I < P.NumLeafOps; ++I) {
    NonterminalId Lhs = I == 0 ? Nts[0] : RandomNt();
    G.addRule(Lhs, G.makeNode(LeafOps[I], NoChildren), RandomCost());
  }

  // Interior operators: RulesPerOp alternatives each, random shapes.
  for (OperatorId Op : UnaryOps) {
    for (unsigned R = 0; R < P.RulesPerOp; ++R) {
      SmallVector<PatternNode *, 1> C{G.makeLeaf(RandomNt())};
      G.addRule(RandomNt(), G.makeNode(Op, C), RandomCost());
    }
  }
  for (OperatorId Op : BinaryOps) {
    for (unsigned R = 0; R < P.RulesPerOp; ++R) {
      SmallVector<PatternNode *, 2> C{G.makeLeaf(RandomNt()),
                                      G.makeLeaf(RandomNt())};
      G.addRule(RandomNt(), G.makeNode(Op, C), RandomCost());
    }
  }

  G.setStart(Nts[0]);
  if (Error E = G.finalize())
    return E;
  return G;
}

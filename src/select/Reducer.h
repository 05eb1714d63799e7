//===- select/Reducer.h - Derivation walk and match extraction ------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reducer: the second pass of tree parsing. Given a labeled function,
/// it walks the minimal derivation from the start nonterminal at each
/// statement root and produces the selected matches in bottom-up emission
/// order. It is engine-independent — all labeling engines answer through
/// the Labeling interface.
///
/// DAGs are handled per Ertl (POPL'99): every (node, nonterminal)
/// combination is visited at most once, so code for shared subtrees is
/// emitted once per needed nonterminal.
///
//===----------------------------------------------------------------------===//

#ifndef ODBURG_SELECT_REDUCER_H
#define ODBURG_SELECT_REDUCER_H

#include "grammar/Grammar.h"
#include "ir/Node.h"
#include "select/DynCost.h"
#include "select/Labeling.h"
#include "support/Error.h"

#include <cstdint>
#include <vector>

namespace odburg {

class ReducerWalker;

/// One selected (fired) source rule.
struct Match {
  /// The node where the source rule's pattern root matched.
  const ir::Node *Where = nullptr;
  /// The fired source rule.
  RuleId Source = InvalidRule;
  /// The nonterminal the rule was fired for.
  NonterminalId Lhs = InvalidNonterminal;
};

/// The result of reducing a function: fired source rules in emission order
/// (bottom-up within a statement, statements in program order) and the
/// total cost of the selected cover.
struct Selection {
  std::vector<Match> Matches;
  /// Sum of fired rules' costs with dynamic hooks evaluated; the metric the
  /// code-quality experiments compare.
  Cost TotalCost = Cost::zero();
};

/// Reusable reducer working memory: the per-(node, nonterminal) visited
/// set and the explicit derivation stack. A batch driver keeps one per
/// worker and passes it to every reduce() call, so reducing N functions
/// costs O(largest function) in allocations instead of O(sum). The
/// visited set is epoch-tagged, making the per-function reset O(1).
/// Contents are owned by reduce(); callers only default-construct and
/// hand the same object back in. Always reusable, including after a
/// reduce() that returned an error.
class ReductionScratch {
public:
  ReductionScratch() = default;
  ReductionScratch(const ReductionScratch &) = delete;
  ReductionScratch &operator=(const ReductionScratch &) = delete;

private:
  friend class ReducerWalker;

  struct Frame {
    const ir::Node *N = nullptr;
    NonterminalId Nt = InvalidNonterminal;
    RuleId Rule = InvalidRule;
    unsigned NextChild = 0;
    bool Resolved = false;
    bool Skip = false;
  };

  /// VisitedEpoch[node * numNts + nt] == Epoch means visited this call.
  std::vector<std::uint32_t> VisitedEpoch;
  std::uint32_t Epoch = 0;
  std::vector<Frame> Stack;
};

/// Walks the minimal derivations of all roots of \p F under \p L.
/// \p Dyn is needed (only) to account dynamic costs into TotalCost; pass
/// null for grammars without dynamic costs. Fails if some root has no
/// derivation from the start nonterminal.
Expected<Selection> reduce(const Grammar &G, const ir::IRFunction &F,
                           const Labeling &L,
                           const DynCostTable *Dyn = nullptr);

/// As above, but reusing \p Scratch for the visited set and walk stack.
Expected<Selection> reduce(const Grammar &G, const ir::IRFunction &F,
                           const Labeling &L, const DynCostTable *Dyn,
                           ReductionScratch &Scratch);

/// As above, but into \p Out, which is cleared first and keeps its
/// capacity — the overload each compile worker runs (see
/// pipeline/CompileService), so a warm worker's selection stops
/// regrowing per function. \p Out is unspecified after an error.
Error reduce(const Grammar &G, const ir::IRFunction &F, const Labeling &L,
             const DynCostTable *Dyn, ReductionScratch &Scratch,
             Selection &Out);

} // namespace odburg

#endif // ODBURG_SELECT_REDUCER_H

//===- perfbench/src/Check.h - Independent reference and result checks ----===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's correctness gate. Before anything is timed, every
/// corpus function is compiled once by the independent `dp` backend
/// (selection-time dynamic programming, no automaton), giving its
/// assembly bytes, fired rules and cover cost. Every result the timed
/// runs produce is compared against that reference; a mismatch counts as
/// a failed function and makes the run exit nonzero. The dp reference is
/// itself checked against the brute-force oracle (select/Oracle) on a
/// sample of small functions, as is the backend under test.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECK_H
#define PERFBENCH_CHECK_H

#include "grammar/Grammar.h"
#include "ir/Node.h"
#include "select/DynCost.h"
#include "select/Reducer.h"
#include "support/Cost.h"
#include "support/Error.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// The expected outcome of compiling one function.
struct Reference {
  std::string Asm;
  /// (node id, fired source rule) in emission order.
  std::vector<std::pair<std::uint32_t, odburg::RuleId>> Rules;
  odburg::Cost Total = odburg::Cost::zero();
};

/// Compiles each function of \p Fns with the dp backend: label, reduce,
/// emit, called directly. Fails on the first function that does not
/// compile (a workload must not contain such functions).
odburg::Expected<std::vector<Reference>>
computeReference(const odburg::Grammar &G, const odburg::DynCostTable *Dyn,
                 std::vector<odburg::ir::IRFunction> &Fns);

/// True when \p Asm is byte-identical to the reference and, when \p Sel is
/// given, its cover cost matches and — with \p CheckRules — so does every
/// fired rule.
bool matches(const Reference &R, std::string_view Asm,
             const odburg::Selection *Sel, bool CheckRules);

/// Number of functions in \p Sample whose \p Costs (one per function,
/// from the backend under test) differ from the brute-force optimum: the
/// sum over statement roots of oracleCost(root, start nonterminal).
unsigned oracleMismatches(const odburg::Grammar &G,
                          const odburg::DynCostTable *Dyn,
                          const std::vector<odburg::ir::IRFunction> &Sample,
                          const std::vector<odburg::Cost> &Costs);

/// Splits one connection's response stream from odburg-serve into the
/// per-function assembly blocks and checks each, byte for byte, against
/// its reference as the bytes arrive. `ERROR ...; seq=K` records (sheds,
/// deadlines) fail frame K; other ERROR records fail the oldest pending
/// frame; a byte that differs from the reference breaks the stream, since
/// framing is then lost. Assembly lines never start with 'E' or 'S', so a
/// record is recognized by its first byte at a block boundary. A `STATS`
/// reply is captured when requested while no frame is pending.
class ResponseChecker {
public:
  /// The next frame sent on the connection; \p Asm must stay alive.
  void expect(std::size_t Frame, const std::string *Asm);
  /// Frames completed or failed by \p Bytes, in arrival order, as
  /// (frame, ok) pairs appended to \p Done.
  void feed(std::string_view Bytes,
            std::vector<std::pair<std::size_t, bool>> &Done);
  /// Fails every pending frame (timeout or a broken connection).
  void failPending(std::vector<std::pair<std::size_t, bool>> &Done);

  std::size_t pending() const { return Pending.size() - Head; }
  bool broken() const { return Broken; }
  /// The last STATS reply line (without the "STATS " prefix), if any.
  const std::string &stats() const { return Stats; }

private:
  struct Frame {
    std::size_t Id;
    const std::string *Asm;
  };
  void finishRecord(std::vector<std::pair<std::size_t, bool>> &Done);

  std::vector<Frame> Pending; ///< Front at index Head.
  std::size_t Head = 0;
  std::size_t Pos = 0;        ///< Bytes of the front block matched so far.
  std::string Record;         ///< A partial ERROR/STATS line.
  bool InRecord = false;
  bool Broken = false;
  std::string Stats;

  bool empty() const { return Head == Pending.size(); }
};

} // namespace perfbench

#endif // PERFBENCH_CHECK_H

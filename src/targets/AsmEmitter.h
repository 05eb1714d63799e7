//===- targets/AsmEmitter.h - Template-driven code emission ----------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a Selection (the reducer's fired rules) into pseudo-assembly
/// using the emission templates attached to grammar rules; the template
/// language is documented in grammar/EmitProgram.h.
///
/// Grammar::finalize() compiles each template once into a flat op list,
/// and emitAsm() runs the ops without parsing text. Operand values live in
/// per-thread 4-byte slots, one per (node, source nonterminal), as
/// grammar/EmitProgram.h's EmitValue; composite '=' lines live in a
/// per-thread arena. Both grow to the largest function their thread has
/// emitted, so steady-state emission into a reused buffer allocates
/// nothing.
///
/// A malformed placeholder does not fail the grammar: it compiles to an
/// error op, and only emitting a match of that rule fails, with the
/// diagnostic naming the rule's external number.
///
//===----------------------------------------------------------------------===//

#ifndef ODBURG_TARGETS_ASMEMITTER_H
#define ODBURG_TARGETS_ASMEMITTER_H

#include "grammar/Grammar.h"
#include "ir/Node.h"
#include "select/Reducer.h"
#include "support/Error.h"

#include <string>

namespace odburg {
namespace targets {

/// The emit target: newline-terminated instruction lines. Batch workers
/// emit into private buffers that the session concatenates in corpus
/// order, byte-identical to emitting everything serially.
struct AsmBuffer {
  /// Newline-terminated instruction lines, in emission order.
  std::string Text;
  /// Instruction count (== number of lines in Text).
  unsigned Instructions = 0;

  void clear() {
    Text.clear();
    Instructions = 0;
  }
};

/// Renders \p S (produced against \p G and \p F) into \p Out, appending.
/// Virtual-register numbering starts fresh per call, so per-function
/// output is independent of what else the buffer holds. Fails when a
/// fired rule's template is malformed, leaving \p Out with the lines
/// emitted before the failure.
Error emitAsm(const Grammar &G, const ir::IRFunction &F, const Selection &S,
              AsmBuffer &Out);

} // namespace targets
} // namespace odburg

#endif // ODBURG_TARGETS_ASMEMITTER_H

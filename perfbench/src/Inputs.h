//===- perfbench/src/Inputs.h - Seeded workload inputs --------------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything a workload feeds the program, derived from one seed: the
/// grammar (the x86 target, or a synthesized grammar whose generator is
/// seeded), the corpus of functions (x86 profile generator or random
/// subject trees, both seeded), and a sample of small functions for the
/// brute-force optimality oracle. The program receives only these
/// generated inputs; the seed never reaches it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "grammar/Grammar.h"
#include "ir/Node.h"
#include "select/DynCost.h"
#include "support/Error.h"
#include "targets/Target.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class WorkloadKind { WarmX86, ColdSynth, ServeX86 };

/// Parses a --workload name; false for unknown names.
bool parseWorkload(std::string_view Name, WorkloadKind &Out);
const char *workloadName(WorkloadKind K);

/// The grammar a workload compiles against, with its dynamic-cost hooks
/// (null for the static-cost synthesized grammar).
struct GrammarBundle {
  std::unique_ptr<odburg::targets::Target> Target;
  std::unique_ptr<odburg::Grammar> Synth;

  const odburg::Grammar &grammar() const {
    return Target ? Target->G : *Synth;
  }
  const odburg::DynCostTable *dyn() const {
    return Target ? &Target->Dyn : nullptr;
  }
};

/// Builds the workload's grammar: the full x86 target with its dynamic
/// costs, or the seeded synthesized grammar. This is the grammar half of
/// setup_s.
odburg::Expected<GrammarBundle> buildGrammar(WorkloadKind K,
                                             std::uint64_t Seed);

struct Inputs {
  GrammarBundle G;
  /// One pass of the workload, in submission order.
  std::vector<odburg::ir::IRFunction> Corpus;
  /// Small functions the brute-force oracle can afford.
  std::vector<odburg::ir::IRFunction> OracleSample;
  /// Nodes in one pass of Corpus.
  std::uint64_t Nodes = 0;
};

/// Generates a workload's inputs from \p Seed. \p Smoke shrinks the
/// corpus to what a few-second smoke run can afford.
odburg::Expected<Inputs> makeInputs(WorkloadKind K, std::uint64_t Seed,
                                    bool Smoke);

/// The odburg-serve wire frame of \p F: one s-expression statement per
/// line, terminated by a blank line.
std::string toWire(const odburg::ir::IRFunction &F,
                   const odburg::Grammar &G);

/// A hash of a corpus's rendered s-expressions: equal inputs hash equal.
std::uint64_t fingerprint(const std::vector<odburg::ir::IRFunction> &Fns,
                          const odburg::Grammar &G);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H

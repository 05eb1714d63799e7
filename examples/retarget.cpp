//===- examples/retarget.cpp - one program, five machine descriptions --------===//
//
// Part of the odburg project.
//
// Retargetability demo: the same MiniC program is selected for all five
// built-in targets. The IR is identical; only the grammar (and its
// dynamic-cost hooks) changes, which is the whole point of grammar-driven
// instruction selection.
//
//===----------------------------------------------------------------------===//

#include "core/OnDemandAutomaton.h"
#include "frontend/Lowering.h"
#include "select/Reducer.h"
#include "support/TablePrinter.h"
#include "targets/AsmEmitter.h"
#include "targets/Target.h"

#include <cstdio>

using namespace odburg;

static const char *Source = R"(
// Sum an array, adding a bias to every element in place.
int a[8]; int i; int sum;
i = 0;
while (i < 8) { a[i] = a[i] + 1000; i = i + 1; }
sum = 0;
i = 0;
while (i < 8) { sum = sum + a[i]; i = i + 1; }
return sum;
)";

int main() {
  TablePrinter Table("One MiniC kernel selected for every target");
  Table.setHeader({"target", "IR nodes", "asm instrs", "cover cost",
                   "automaton states"});

  for (const std::string &Name : targets::targetNames()) {
    auto T = cantFail(targets::makeTarget(Name));
    ir::IRFunction F = cantFail(minic::compileMiniC(Source, T->G));
    OnDemandAutomaton A(T->G, &T->Dyn);
    A.labelFunction(F);
    Selection S = cantFail(reduce(T->G, F, A, &T->Dyn));
    targets::AsmBuffer Asm;
    cantFail(targets::emitAsm(T->G, F, S, Asm));
    Table.addRow({Name, std::to_string(F.size()),
                  std::to_string(Asm.Instructions),
                  std::to_string(S.TotalCost.value()),
                  std::to_string(A.numStates())});
  }
  Table.print();

  // Print the x86 and mips code of the first loop body side by side in
  // sequence, so the addressing-mode / RMW differences are visible.
  for (const char *Name : {"x86", "mips"}) {
    auto T = cantFail(targets::makeTarget(Name));
    ir::IRFunction F = cantFail(minic::compileMiniC(Source, T->G));
    OnDemandAutomaton A(T->G, &T->Dyn);
    A.labelFunction(F);
    Selection S = cantFail(reduce(T->G, F, A, &T->Dyn));
    targets::AsmBuffer Asm;
    cantFail(targets::emitAsm(T->G, F, S, Asm));
    std::printf("\n--- %s (%u instructions) ---\n%s", Name,
                Asm.Instructions, Asm.Text.c_str());
  }
  return 0;
}

//===- targets/X86Grammar.cpp - CISC machine description -------------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The x86-flavored grammar: rich addressing modes (base, base+disp,
/// base+index, base+index*scale), memory operands for arithmetic,
/// read-modify-write memops gated by the `?memop` dynamic cost, and 32-bit
/// immediates gated by `?imm32`. This is the grammar where dynamic costs
/// buy the most — the role lcc's x86linux.md (45 of 305 rules dynamic)
/// plays in the papers.
///
/// Emission templates are illustrative three-operand pseudo-assembly in
/// AT&T flavor; `\n` separates instructions, a leading `=` defines an
/// operand alias instead of emitting code (see grammar/EmitProgram.h).
///
//===----------------------------------------------------------------------===//

#include "targets/Target.h"

const char *odburg::targets::x86GrammarText() {
  return R"brg(
# x86-flavored machine description.
%start stmt

# --- leaves -----------------------------------------------------------
con:  Const (0) "=$%c";
imm:  Const (0) ?imm32 "=$%c";
sh:   Const (0) ?imm8  "=$%c";
k:    Const (0) ?scale123 "=%c";
reg:  Reg (0) "=%%r%c";
reg:  con (1) "movq %1, %0";

# --- addressing modes -------------------------------------------------
addr: reg (0) "=(%1)";
addr: AddrL (0) "=%c(%%rbp)";
addr: AddrG (0) "=%c(%%rip)";
addr: Add(reg, imm) (0) "=%2(%1)";
addr: Add(reg, reg) (0) "=(%1,%2)";
idx:  Shl(reg, k) (0) "=%1,%2";
addr: Add(reg, idx) (0) "=(%1,%2)";
reg:  addr (1) "leaq %1, %0";

# --- loads and stores -------------------------------------------------
mem:  Load(addr) (0) "=%1";
reg:  Load(addr) (1) "movq %1, %0";
stmt: Store(addr, reg) (1) "movq %2, %1";
stmt: Store(addr, imm) (1) "movq %2, %1";

# --- two-operand arithmetic: rr / ri / rm forms ------------------------
reg:  Add(reg, reg) (1) "addq %2, %1, %0";
reg:  Add(reg, imm) (1) "addq %2, %1, %0";
reg:  Add(reg, mem) (1) "addq %2, %1, %0";
reg:  Sub(reg, reg) (1) "subq %2, %1, %0";
reg:  Sub(reg, imm) (1) "subq %2, %1, %0";
reg:  Sub(reg, mem) (1) "subq %2, %1, %0";
reg:  And(reg, reg) (1) "andq %2, %1, %0";
reg:  And(reg, imm) (1) "andq %2, %1, %0";
reg:  And(reg, mem) (1) "andq %2, %1, %0";
reg:  Or(reg, reg)  (1) "orq %2, %1, %0";
reg:  Or(reg, imm)  (1) "orq %2, %1, %0";
reg:  Or(reg, mem)  (1) "orq %2, %1, %0";
reg:  Xor(reg, reg) (1) "xorq %2, %1, %0";
reg:  Xor(reg, imm) (1) "xorq %2, %1, %0";
reg:  Xor(reg, mem) (1) "xorq %2, %1, %0";

# --- multiply / divide -------------------------------------------------
reg:  Mul(reg, reg) (3)  "imulq %2, %1, %0";
reg:  Mul(reg, imm) (3)  "imulq %2, %1, %0";
reg:  Mul(reg, mem) (3)  "imulq %2, %1, %0";
reg:  Div(reg, reg) (24) "cqto\nidivq %2, %1, %0";
reg:  Mod(reg, reg) (24) "cqto\nidivq %2, %1, %0(rdx)";

# --- shifts ------------------------------------------------------------
reg:  Shl(reg, sh)  (1) "salq %2, %1, %0";
reg:  Shl(reg, reg) (2) "movq %2, %%rcx\nsalq %%cl, %1, %0";
reg:  Shr(reg, sh)  (1) "sarq %2, %1, %0";
reg:  Shr(reg, reg) (2) "movq %2, %%rcx\nsarq %%cl, %1, %0";

# --- unary -------------------------------------------------------------
reg:  Neg(reg) (1) "negq %1, %0";
reg:  Com(reg) (1) "notq %1, %0";

# --- read-modify-write memops (the dynamic-cost showpiece) -------------
stmt: Store(addr, Add(Load(addr), reg)) (1) ?memop "addq %3, %1";
stmt: Store(addr, Add(Load(addr), imm)) (1) ?memop "addq %3, %1";
stmt: Store(addr, Sub(Load(addr), reg)) (1) ?memop "subq %3, %1";
stmt: Store(addr, Sub(Load(addr), imm)) (1) ?memop "subq %3, %1";
stmt: Store(addr, And(Load(addr), reg)) (1) ?memop "andq %3, %1";
stmt: Store(addr, And(Load(addr), imm)) (1) ?memop "andq %3, %1";
stmt: Store(addr, Or(Load(addr), reg))  (1) ?memop "orq %3, %1";
stmt: Store(addr, Or(Load(addr), imm))  (1) ?memop "orq %3, %1";
stmt: Store(addr, Xor(Load(addr), reg)) (1) ?memop "xorq %3, %1";
stmt: Store(addr, Xor(Load(addr), imm)) (1) ?memop "xorq %3, %1";
stmt: Store(addr, Shl(Load(addr), sh))  (1) ?memop "salq %3, %1";
stmt: Store(addr, Shr(Load(addr), sh))  (1) ?memop "sarq %3, %1";

# --- compare and branch -------------------------------------------------
cnd:  CmpEQ(reg, reg) (1) "cmpq %2, %1\n=e";
cnd:  CmpEQ(reg, imm) (1) "cmpq %2, %1\n=e";
cnd:  CmpEQ(reg, mem) (1) "cmpq %2, %1\n=e";
cnd:  CmpNE(reg, reg) (1) "cmpq %2, %1\n=ne";
cnd:  CmpNE(reg, imm) (1) "cmpq %2, %1\n=ne";
cnd:  CmpNE(reg, mem) (1) "cmpq %2, %1\n=ne";
cnd:  CmpLT(reg, reg) (1) "cmpq %2, %1\n=l";
cnd:  CmpLT(reg, imm) (1) "cmpq %2, %1\n=l";
cnd:  CmpLT(reg, mem) (1) "cmpq %2, %1\n=l";
cnd:  CmpLE(reg, reg) (1) "cmpq %2, %1\n=le";
cnd:  CmpLE(reg, imm) (1) "cmpq %2, %1\n=le";
cnd:  CmpLE(reg, mem) (1) "cmpq %2, %1\n=le";
cnd:  CmpGT(reg, reg) (1) "cmpq %2, %1\n=g";
cnd:  CmpGT(reg, imm) (1) "cmpq %2, %1\n=g";
cnd:  CmpGT(reg, mem) (1) "cmpq %2, %1\n=g";
cnd:  CmpGE(reg, reg) (1) "cmpq %2, %1\n=ge";
cnd:  CmpGE(reg, imm) (1) "cmpq %2, %1\n=ge";
cnd:  CmpGE(reg, mem) (1) "cmpq %2, %1\n=ge";
stmt: CBr(cnd) (1) "j%1 .L%c";

# --- control flow -------------------------------------------------------
stmt: Label (0) ".L%c:";
stmt: Br (1) "jmp .L%c";
stmt: Ret(reg) (1) "movq %1, %%rax\nret";
stmt: Ret(imm) (1) "movq %1, %%rax\nret";
)brg";
}

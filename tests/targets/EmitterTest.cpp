//===- tests/targets/EmitterTest.cpp ----------------------------------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "targets/AsmEmitter.h"

#include "grammar/GrammarParser.h"
#include "select/DPLabeler.h"
#include "select/Reducer.h"
#include "targets/Target.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace odburg;
using namespace odburg::targets;

namespace {

class EmitterTest : public ::testing::Test {
protected:
  void SetUp() override {
    T = cantFail(makeTarget("x86"));
    Ops = cantFail(resolveCanonicalOps(T->G));
  }

  AsmBuffer compile(ir::IRFunction &F) {
    DPLabeling L = DPLabeler(T->G, &T->Dyn).label(F);
    Selection S = cantFail(reduce(T->G, F, L, &T->Dyn));
    AsmBuffer Out;
    cantFail(emitAsm(T->G, F, S, Out));
    return Out;
  }

  std::unique_ptr<Target> T;
  CanonicalOps Ops;
};

} // namespace

TEST_F(EmitterTest, StoresConstantToFrameSlot) {
  ir::IRFunction F;
  ir::Node *Addr = F.makeLeaf(Ops.AddrL, 24);
  ir::Node *C = F.makeLeaf(Ops.Const, 7);
  SmallVector<ir::Node *, 2> SC{Addr, C};
  F.addRoot(F.makeNode(Ops.Store, SC));
  AsmBuffer Out = compile(F);
  std::vector<std::string> Lines = test::asmLines(Out.Text);
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_EQ(Out.Instructions, 1u);
  EXPECT_EQ(Lines[0], "movq $7, 24(%rbp)");
}

TEST_F(EmitterTest, RmwFusesToSingleInstruction) {
  ir::IRFunction F;
  ir::Node *A1 = F.makeLeaf(Ops.AddrL, 8);
  ir::Node *A2 = F.makeLeaf(Ops.AddrL, 8);
  SmallVector<ir::Node *, 1> LC{A2};
  ir::Node *Ld = F.makeNode(Ops.Load, LC);
  ir::Node *C = F.makeLeaf(Ops.Const, 1);
  SmallVector<ir::Node *, 2> AC{Ld, C};
  ir::Node *Sum = F.makeNode(Ops.Add, AC);
  SmallVector<ir::Node *, 2> SC{A1, Sum};
  F.addRoot(F.makeNode(Ops.Store, SC));
  AsmBuffer Out = compile(F);
  std::vector<std::string> Lines = test::asmLines(Out.Text);
  // x = x + 1 is one read-modify-write instruction.
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_EQ(Out.Instructions, 1u);
  EXPECT_EQ(Lines[0], "addq $1, 8(%rbp)");
}

TEST_F(EmitterTest, MemoryOperandFolding) {
  // r = r2 + mem: the load folds into the add as a memory operand.
  ir::IRFunction F;
  ir::Node *R = F.makeLeaf(Ops.Reg, 3);
  ir::Node *A = F.makeLeaf(Ops.AddrL, 16);
  SmallVector<ir::Node *, 1> LC{A};
  ir::Node *Ld = F.makeNode(Ops.Load, LC);
  SmallVector<ir::Node *, 2> AC{R, Ld};
  ir::Node *Sum = F.makeNode(Ops.Add, AC);
  ir::Node *Dst = F.makeLeaf(Ops.AddrL, 32);
  SmallVector<ir::Node *, 2> SC{Dst, Sum};
  F.addRoot(F.makeNode(Ops.Store, SC));
  AsmBuffer Out = compile(F);
  std::vector<std::string> Lines = test::asmLines(Out.Text);
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_EQ(Out.Instructions, 2u);
  EXPECT_EQ(Lines[0], "addq 16(%rbp), %r3, %v0");
  EXPECT_EQ(Lines[1], "movq %v0, 32(%rbp)");
}

TEST_F(EmitterTest, CompareBranchUsesConditionAlias) {
  ir::IRFunction F;
  ir::Node *L = F.makeLeaf(Ops.Reg, 1);
  ir::Node *R = F.makeLeaf(Ops.Reg, 2);
  SmallVector<ir::Node *, 2> CC{L, R};
  ir::Node *Cmp = F.makeNode(Ops.CmpLT, CC);
  SmallVector<ir::Node *, 1> BC{Cmp};
  F.addRoot(F.makeNode(Ops.CBr, BC, 5));
  AsmBuffer Out = compile(F);
  std::vector<std::string> Lines = test::asmLines(Out.Text);
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_EQ(Out.Instructions, 2u);
  EXPECT_EQ(Lines[0], "cmpq %r2, %r1");
  EXPECT_EQ(Lines[1], "jl .L5");
}

TEST_F(EmitterTest, LabelsAndJumps) {
  ir::IRFunction F;
  F.addRoot(F.makeLeaf(Ops.Label, 3));
  F.addRoot(F.makeLeaf(Ops.Br, 3));
  AsmBuffer Out = compile(F);
  std::vector<std::string> Lines = test::asmLines(Out.Text);
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_EQ(Out.Instructions, 2u);
  EXPECT_EQ(Lines[0], ".L3:");
  EXPECT_EQ(Lines[1], "jmp .L3");
}

TEST_F(EmitterTest, VregsAreDistinct) {
  // (r1 + r2) * (r3 + r4): two adds into distinct vregs, then a multiply.
  ir::IRFunction F;
  SmallVector<ir::Node *, 2> C1{F.makeLeaf(Ops.Reg, 1), F.makeLeaf(Ops.Reg, 2)};
  ir::Node *S1 = F.makeNode(Ops.Add, C1);
  SmallVector<ir::Node *, 2> C2{F.makeLeaf(Ops.Reg, 3), F.makeLeaf(Ops.Reg, 4)};
  ir::Node *S2 = F.makeNode(Ops.Add, C2);
  SmallVector<ir::Node *, 2> C3{S1, S2};
  ir::Node *Prod = F.makeNode(Ops.Mul, C3);
  SmallVector<ir::Node *, 1> RC{Prod};
  F.addRoot(F.makeNode(Ops.Ret, RC));
  AsmBuffer Out = compile(F);
  std::vector<std::string> Lines = test::asmLines(Out.Text);
  ASSERT_GE(Lines.size(), 3u);
  EXPECT_EQ(Out.Instructions, Lines.size());
  EXPECT_NE(Lines[0], Lines[1]);
  EXPECT_NE(Out.Text.find("%v0"), std::string::npos);
  EXPECT_NE(Out.Text.find("%v1"), std::string::npos);
}

TEST_F(EmitterTest, SizeBytesCountsText) {
  ir::IRFunction F;
  F.addRoot(F.makeLeaf(Ops.Label, 1));
  AsmBuffer Out = compile(F);
  std::vector<std::string> Lines = test::asmLines(Out.Text);
  std::size_t LineBytes = 0;
  for (const std::string &L : Lines)
    LineBytes += L.size() + 1;
  EXPECT_EQ(Out.Text.size(), LineBytes);
  EXPECT_EQ(Out.Instructions, Lines.size());
}

TEST(EmitterErrors, BadPlaceholderIndexReported) {
  Grammar G = cantFail(parseGrammar(R"(
    %start stmt
    reg:  Reg (0) "=%%r%c";
    stmt: Store(reg, reg) (1) "st %3, %1";
  )"));
  ir::IRFunction F;
  OperatorId RegOp = G.findOperator("Reg");
  OperatorId StoreOp = G.findOperator("Store");
  SmallVector<ir::Node *, 2> C{F.makeLeaf(RegOp, 1), F.makeLeaf(RegOp, 2)};
  F.addRoot(F.makeNode(StoreOp, C));
  DPLabeling L = DPLabeler(G).label(F);
  Selection S = cantFail(reduce(G, F, L));
  AsmBuffer Out;
  Error E = emitAsm(G, F, S, Out);
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("%3"), std::string::npos);
}

namespace {

/// Labels \p F with the DP reference labeler, reduces it and emits it
/// into \p Out, appending.
Error emitInto(const Grammar &G, ir::IRFunction &F, AsmBuffer &Out) {
  DPLabeling L = DPLabeler(G).label(F);
  Selection S = cantFail(reduce(G, F, L));
  return emitAsm(G, F, S, Out);
}

/// Emits a function whose only root is a leaf of operator \p Op with
/// payload \p Value, under \p GrammarText; returns the text.
std::string emitLeaf(const char *GrammarText, const char *Op,
                     std::int64_t Value = 0) {
  Grammar G = cantFail(parseGrammar(GrammarText));
  ir::IRFunction F;
  F.addRoot(F.makeLeaf(G.findOperator(Op), Value));
  AsmBuffer Out;
  cantFail(emitInto(G, F, Out));
  return Out.Text;
}

/// The error message of emitting a lone \p Op leaf under \p GrammarText.
std::string emitLeafError(const char *GrammarText, const char *Op) {
  Grammar G = cantFail(parseGrammar(GrammarText));
  ir::IRFunction F;
  F.addRoot(F.makeLeaf(G.findOperator(Op)));
  AsmBuffer Out;
  Error E = emitInto(G, F, Out);
  if (!E)
    return "(no error)";
  EXPECT_EQ(E.kind(), ErrorKind::Generic);
  return E.message();
}

} // namespace

TEST(EmitterTemplates, DoublePercentIsLiteralPercent) {
  EXPECT_EQ(emitLeaf(R"(stmt: Reg (0) "mov %%r%c, 100%%";)", "Reg", 5),
            "mov %r5, 100%\n");
}

TEST(EmitterTemplates, PayloadPrintsSymbolWhenPresent) {
  Grammar G = cantFail(parseGrammar(R"(stmt: AddrG (0) "call %c";)"));
  ir::IRFunction F;
  F.addRoot(F.makeLeaf(G.findOperator("AddrG"), 12, F.internString("memcpy")));
  AsmBuffer Out;
  cantFail(emitInto(G, F, Out));
  EXPECT_EQ(Out.Text, "call memcpy\n");
}

TEST(EmitterTemplates, PayloadPrintsNegativeValue) {
  EXPECT_EQ(emitLeaf(R"(stmt: Const (0) "li %c";)", "Const", -42),
            "li -42\n");
  EXPECT_EQ(emitLeaf(R"(stmt: Const (0) "li %c";)", "Const", INT64_MIN),
            "li -9223372036854775808\n");
}

TEST(EmitterTemplates, DestUsedTwiceIsOneVreg) {
  Grammar G = cantFail(parseGrammar(R"(
    %start stmt
    reg:  Reg (0) "=%%r%c";
    reg:  Neg(reg) (1) "neg %1, %0\nuse %0, %0";
    stmt: Ret(reg) (1) "ret %1";
  )"));
  ir::IRFunction F;
  SmallVector<ir::Node *, 1> C{F.makeLeaf(G.findOperator("Reg"), 1)};
  SmallVector<ir::Node *, 1> RC{F.makeNode(G.findOperator("Neg"), C)};
  F.addRoot(F.makeNode(G.findOperator("Ret"), RC));
  AsmBuffer Out;
  cantFail(emitInto(G, F, Out));
  EXPECT_EQ(Out.Text, "neg %r1, %v0\nuse %v0, %v0\nret %v0\n");
  EXPECT_EQ(Out.Instructions, 3u);
}

TEST(EmitterTemplates, DestUsedOnlyInAliasLine) {
  // The alias takes a fresh vreg; the next %0 gets the one after it.
  Grammar G = cantFail(parseGrammar(R"(
    %start stmt
    reg:  Reg (0) "=%%r%c";
    reg:  Neg(reg) (1) "neg %1, %0";
    mem:  Load(reg) (1) "=[%0]";
    stmt: Store(mem, reg) (1) "st %2, %1";
  )"));
  ir::IRFunction F;
  SmallVector<ir::Node *, 1> LC{F.makeLeaf(G.findOperator("Reg"), 1)};
  ir::Node *Ld = F.makeNode(G.findOperator("Load"), LC);
  SmallVector<ir::Node *, 1> NC{F.makeLeaf(G.findOperator("Reg"), 2)};
  ir::Node *Ng = F.makeNode(G.findOperator("Neg"), NC);
  SmallVector<ir::Node *, 2> SC{Ld, Ng};
  F.addRoot(F.makeNode(G.findOperator("Store"), SC));
  AsmBuffer Out;
  cantFail(emitInto(G, F, Out));
  EXPECT_EQ(Out.Text, "neg %r2, %v1\nst %v1, [%v0]\n");
}

TEST(EmitterTemplates, AliasLineReferencesOperands) {
  Grammar G = cantFail(parseGrammar(R"g(
    %start stmt
    reg:  Reg (0) "=%%r%c";
    con:  Const (0) "=$%c";
    addr: Add(reg, con) (0) "=%2(%1)";
    stmt: Ret(addr) (1) "ret %1\n=unused %1";
  )g"));
  ir::IRFunction F;
  SmallVector<ir::Node *, 2> AC{F.makeLeaf(G.findOperator("Reg"), 3),
                                F.makeLeaf(G.findOperator("Const"), 8)};
  SmallVector<ir::Node *, 1> RC{F.makeNode(G.findOperator("Add"), AC)};
  F.addRoot(F.makeNode(G.findOperator("Ret"), RC));
  AsmBuffer Out;
  cantFail(emitInto(G, F, Out));
  EXPECT_EQ(Out.Text, "ret $8(%r3)\n");
  EXPECT_EQ(Out.Instructions, 1u);
}

TEST(EmitterTemplates, ConsecutiveNewlinesEmitEmptyLine) {
  Grammar G = cantFail(parseGrammar(R"(stmt: Reg (0) "a\n\nb";)"));
  ir::IRFunction F;
  F.addRoot(F.makeLeaf(G.findOperator("Reg")));
  AsmBuffer Out;
  cantFail(emitInto(G, F, Out));
  EXPECT_EQ(Out.Text, "a\n\nb\n");
  EXPECT_EQ(Out.Instructions, 3u);
}

TEST(EmitterTemplates, TrailingNewlineAddsNoLine) {
  EXPECT_EQ(emitLeaf(R"(stmt: Reg (0) "a\n";)", "Reg"), "a\n");
  // A leading one does: the empty first line is an instruction line.
  EXPECT_EQ(emitLeaf(R"(stmt: Reg (0) "\na";)", "Reg"), "\na\n");
}

TEST(EmitterTemplates, NeverSetOperandRendersQuestionMark) {
  // A hand-built selection that fires the Ret rule without first firing
  // anything for its operand.
  Grammar G = cantFail(parseGrammar(R"(
    %start stmt
    reg:  Reg (0) "=%%r%c";
    stmt: Ret(reg) (1) "ret %1";
  )"));
  ir::IRFunction F;
  SmallVector<ir::Node *, 1> RC{F.makeLeaf(G.findOperator("Reg"), 4)};
  ir::Node *Ret = F.makeNode(G.findOperator("Ret"), RC);
  F.addRoot(Ret);
  Selection S;
  S.Matches.push_back({Ret, /*Source=*/1, G.findNonterminal("stmt")});
  AsmBuffer Out;
  cantFail(emitAsm(G, F, S, Out));
  EXPECT_EQ(Out.Text, "ret ?\n");
}

TEST(EmitterTemplates, MalformedPlaceholdersAreTypedErrors) {
  EXPECT_EQ(emitLeafError(R"(stmt: Reg = 7 (0) "mov %";)", "Reg"),
            "dangling '%' in template of rule #7");
  EXPECT_EQ(emitLeafError(R"(stmt: Reg = 7 (0) "mov %x, %0";)", "Reg"),
            "unknown template placeholder '%x' in rule #7");
  EXPECT_EQ(emitLeafError(R"(stmt: Reg = 7 (0) "=%1";)", "Reg"),
            "template of rule #7 references operand %1 but only 0 operands "
            "exist");
}

TEST(EmitterTemplates, MalformedRuleThatNeverFiresDoesNotBlockEmission) {
  // The grammar loads; only functions that fire rule #2 fail, and a
  // function emitted after such a failure is unaffected.
  Grammar G = cantFail(parseGrammar(R"(
    %start stmt
    stmt: Reg = 1 (0) "ok %c";
    stmt: Br = 2 (1) "bad %q";
  )"));
  auto Leaf = [&G](const char *Op, std::int64_t V) {
    ir::IRFunction F;
    F.addRoot(F.makeLeaf(G.findOperator(Op), V));
    return F;
  };
  ir::IRFunction F1 = Leaf("Reg", 1), F2 = Leaf("Br", 2), F3 = Leaf("Reg", 3);
  AsmBuffer Out;
  cantFail(emitInto(G, F1, Out));
  Error E = emitInto(G, F2, Out);
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(E.message(), "unknown template placeholder '%q' in rule #2");
  cantFail(emitInto(G, F3, Out));
  EXPECT_EQ(Out.Text, "ok 1\nok 3\n");
  EXPECT_EQ(Out.Instructions, 2u);
}

TEST(EmitterTemplates, LinesEmittedBeforeFailureStayInOut) {
  Grammar G = cantFail(parseGrammar(R"(
    %start stmt
    stmt: Reg = 1 (0) "first %c";
    stmt: Br = 2 (1) "keep\nbad %";
  )"));
  ir::IRFunction F;
  F.addRoot(F.makeLeaf(G.findOperator("Reg"), 1));
  F.addRoot(F.makeLeaf(G.findOperator("Br")));
  F.addRoot(F.makeLeaf(G.findOperator("Reg"), 2));
  AsmBuffer Out;
  Out.Text = "prior\n";
  Out.Instructions = 1;
  Error E = emitInto(G, F, Out);
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(E.message(), "dangling '%' in template of rule #2");
  EXPECT_EQ(Out.Text, "prior\nfirst 1\nkeep\n");
  EXPECT_EQ(Out.Instructions, 3u);
}

//===- tests/targets/EmitterGoldenTest.cpp --------------------------------===//
//
// Part of the odburg project.
//
// Pins the emitter's output to committed digests. Every other byte-identity
// check compares two outputs of the same emitter (backend against backend,
// server against batch), so none of them sees a change in the emitter
// itself. Here each shipped target emits one function per corpus profile at
// a fixed seed, labeled by the DP reference labeler, and the asm byte
// count, instruction count and a 64-bit hash of the text must equal the
// values recorded below. One small x86 function is also pinned in full, so
// a failure there shows a readable diff.
//
//===----------------------------------------------------------------------===//

#include "targets/AsmEmitter.h"

#include "select/DPLabeler.h"
#include "select/Reducer.h"
#include "support/Hashing.h"
#include "targets/Target.h"
#include "workload/Synthetic.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

using namespace odburg;
using namespace odburg::targets;

namespace {

struct Golden {
  const char *Target;
  const char *Profile;
  std::size_t Bytes;
  unsigned Instructions;
  std::uint64_t Hash;
};

/// Emits one \p Nodes-node function of \p ProfileName for target \p T.
AsmBuffer emitProfile(const Target &T, const char *ProfileName,
                      unsigned Nodes, std::uint64_t Seed) {
  workload::Profile P = *workload::findProfile(ProfileName);
  P.Seed = Seed;
  P.TargetNodes = Nodes;
  ir::IRFunction F = cantFail(workload::generate(P, T.G));
  DPLabeling L = DPLabeler(T.G, &T.Dyn).label(F);
  Selection S = cantFail(reduce(T.G, F, L, &T.Dyn));
  AsmBuffer Out;
  cantFail(emitAsm(T.G, F, S, Out));
  return Out;
}

constexpr std::uint64_t GoldenSeed = 7;
constexpr unsigned GoldenNodes = 3000;

// Recorded from the emitter; any change here is a change in emitted code.
const Golden Goldens[] = {
    {"x86", "gzip-like", 27314, 1282, 0xd4423e64ef562053ULL},
    {"x86", "gcc-like", 32882, 1491, 0x39ac37382ded7f7ULL},
    {"x86", "twolf-like", 34005, 1534, 0x39402ce762a2ccbdULL},
    {"mips", "gzip-like", 39723, 1889, 0x4e2f371e961d59e9ULL},
    {"mips", "gcc-like", 43875, 2047, 0x4a50d7cde5b3576eULL},
    {"mips", "twolf-like", 44994, 2205, 0xc7a1a4ec5d4daa50ULL},
    {"sparc", "gzip-like", 43041, 2087, 0x8c407975cd6ad58cULL},
    {"sparc", "gcc-like", 44609, 2089, 0x38370a1f07362857ULL},
    {"sparc", "twolf-like", 45603, 2073, 0xac6dee4e8397cc05ULL},
    {"alpha", "gzip-like", 36986, 1738, 0xd99b5217804c5d46ULL},
    {"alpha", "gcc-like", 41176, 1869, 0x3123e830280a1152ULL},
    {"alpha", "twolf-like", 41343, 1856, 0x8b632a3ab7d051c9ULL},
    {"vm64", "gzip-like", 38346, 1807, 0xae207f66600e719fULL},
    {"vm64", "gcc-like", 41851, 1919, 0x54579d6bd04e1521ULL},
    {"vm64", "twolf-like", 43223, 1972, 0x5e68c9d6d43b5aabULL},
};

} // namespace

TEST(EmitterGolden, EveryTargetAndProfileMatchesRecordedDigest) {
  for (const std::string &Name : targetNames()) {
    auto T = cantFail(makeTarget(Name));
    for (const char *Profile : {"gzip-like", "gcc-like", "twolf-like"}) {
      AsmBuffer Out = emitProfile(*T, Profile, GoldenNodes, GoldenSeed);
      std::uint64_t Hash = hashString(Out.Text);
      const Golden *G = nullptr;
      for (const Golden &C : Goldens)
        if (Name == C.Target && std::string(Profile) == C.Profile)
          G = &C;
      ASSERT_NE(G, nullptr) << Name << " " << Profile << " has no digest";
      EXPECT_EQ(Out.Text.size(), G->Bytes) << Name << " " << Profile;
      EXPECT_EQ(Out.Instructions, G->Instructions) << Name << " " << Profile;
      EXPECT_EQ(Hash, G->Hash) << Name << " " << Profile;
    }
  }
}

TEST(EmitterGolden, SmallX86FunctionFullText) {
  auto T = cantFail(makeTarget("x86"));
  AsmBuffer Out = emitProfile(*T, "gcc-like", 90, GoldenSeed);
  const char *Expected =
      "movq 456(%rbp), %v0\n"
      "addq %r0, %v0, %v1\n"
      "subq 280(%rbp), %r0, %v2\n"
      "andq %v2, %v1, %v3\n"
      "movq $76726, %v4\n"
      "addq 272(%rbp), %v4, %v5\n"
      "notq %v5, %v6\n"
      "imulq %v6, %v3, %v7\n"
      "subq %v7, %r11, %v8\n"
      "movq $37, %v9\n"
      "imulq %r4, %v9, %v10\n"
      "orq %r4, %r11, %v11\n"
      "addq %v11, %v10, %v12\n"
      "negq %v12, %v13\n"
      "movq 80(%rip), %v14\n"
      "andq 320(%rbp), %v14, %v15\n"
      "addq $605437, %r0, %v16\n"
      "addq %v16, %v15, %v17\n"
      "andq %r11, %v17, %v18\n"
      "andq %v18, %v13, %v19\n"
      "subq %v19, %v8, %v20\n"
      "movq %v20, 456(%rbp)\n"
      "subq %r8, 8(%rip)\n"
      "movq $94, (%r5,%r7,3)\n"
      "movq $17, %v21\n"
      "movq 232(%rbp), %v22\n"
      "orq %r1, %v22, %v23\n"
      "movq 248(%rip), %v24\n"
      "movq $721643, %v25\n"
      "notq %v25, %v26\n"
      "andq %v26, %v24, %v27\n"
      "xorq %v27, %v23, %v28\n"
      "imulq 392(%rbp), %v28, %v29\n"
      "andq %v29, %v21, %v30\n"
      "movq %v30, 496(%rbp)\n"
      "movq $35, %v31\n"
      "notq %v31, %v32\n"
      "sarq $3, %v32, %v33\n"
      "subq $369435, %v33, %v34\n"
      "movq $51, %v35\n"
      "andq %r9, %v35, %v36\n"
      "addq $31, %v36, %v37\n"
      "movq $10733079610, %v38\n"
      "addq %v38, %r2, %v39\n"
      "movq $61, %v40\n"
      "subq 144(%rbp), %v40, %v41\n"
      "orq %v41, %v39, %v42\n"
      "andq %v42, %v37, %v43\n"
      "addq %v43, %v34, %v44\n"
      "cmpq $51, %v44\n"
      "jne .L0\n"
      "movq $84, %v45\n"
      "addq $52, %r5, %v46\n"
      "movq 288(%rbp), %v47\n"
      "negq %v47, %v48\n"
      "subq %v48, %v46, %v49\n"
      "xorq 40(%rbp), %r6, %v50\n"
      "notq %v50, %v51\n"
      "andq %v51, %v49, %v52\n"
      "addq %v52, %v45, %v53\n"
      "movq 40(%rip), %v54\n"
      "negq %v54, %v55\n"
      "movq (%r6,%r2,3), %v56\n"
      "addq %r8, %v56, %v57\n"
      "addq %v57, %v55, %v58\n"
      "orq $99, %v58, %v59\n"
      "notq %v59, %v60\n"
      "andq %v60, %v53, %v61\n"
      "movq %v61, %rax\n"
      "ret\n";
  EXPECT_EQ(Out.Text, Expected);
}

//===- tests/spec_register_test.cpp - RegisterSpec --------------------------===//

#include "spec/RegisterSpec.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace pushpull;
using testutil::hintDisagreements;
using testutil::mkOp;

namespace {

RegisterSpec spec() { return RegisterSpec("mem", 2, 3); }

Operation rd(Value R, Value V, OpId Id = 1) {
  return mkOp(Id, "mem", "read", {R}, V);
}
Operation wr(Value R, Value V, OpId Id = 1) {
  return mkOp(Id, "mem", "write", {R, V}, V);
}

} // namespace

TEST(RegisterSpec, InitialStateAllZero) {
  RegisterSpec S = spec();
  auto I = S.initialStates();
  ASSERT_EQ(I.size(), 1u);
  EXPECT_EQ(I[0], "0,0");
}

TEST(RegisterSpec, ReadOfInitialValueAllowed) {
  RegisterSpec S = spec();
  EXPECT_TRUE(S.allowed({rd(0, 0)}));
  EXPECT_FALSE(S.allowed({rd(0, 1)}));
}

TEST(RegisterSpec, WriteThenReadBack) {
  RegisterSpec S = spec();
  EXPECT_TRUE(S.allowed({wr(0, 2, 1), rd(0, 2, 2)}));
  EXPECT_FALSE(S.allowed({wr(0, 2, 1), rd(0, 1, 2)}));
  // The paper's example: a := x with wrong return is not allowed.
  EXPECT_TRUE(S.allowed({wr(1, 1, 1), rd(1, 1, 2), rd(0, 0, 3)}));
}

TEST(RegisterSpec, PrefixClosed) {
  // allowed must be prefix closed (Parameter 3.1): check on a batch of
  // allowed logs that every prefix is allowed too.
  RegisterSpec S = spec();
  std::vector<std::vector<Operation>> Logs = {
      {wr(0, 1, 1), rd(0, 1, 2), wr(0, 2, 3), rd(0, 2, 4)},
      {wr(1, 2, 1), wr(0, 1, 2), rd(1, 2, 3)},
      {rd(0, 0, 1), rd(1, 0, 2), wr(1, 1, 3)},
  };
  for (const auto &Log : Logs) {
    ASSERT_TRUE(S.allowed(Log));
    for (size_t N = 0; N <= Log.size(); ++N) {
      std::vector<Operation> Prefix(Log.begin(), Log.begin() + N);
      EXPECT_TRUE(S.allowed(Prefix));
    }
  }
}

TEST(RegisterSpec, CompletionsAreCurrentValue) {
  RegisterSpec S = spec();
  StateSet After = S.denote({wr(0, 2, 1)});
  auto Comps = S.completionsFrom(After, {"mem", "read", {0}});
  ASSERT_EQ(Comps.size(), 1u);
  EXPECT_EQ(Comps[0].Result, Value(2));
}

TEST(RegisterSpec, WriteEchoesValue) {
  RegisterSpec S = spec();
  auto Comps = S.completionsFrom(S.initial(), {"mem", "write", {1, 2}});
  ASSERT_EQ(Comps.size(), 1u);
  EXPECT_EQ(Comps[0].Result, Value(2));
}

TEST(RegisterSpec, OutOfDomainRejected) {
  RegisterSpec S = spec();
  EXPECT_TRUE(S.completionsFrom(S.initial(), {"mem", "read", {5}}).empty());
  EXPECT_TRUE(
      S.completionsFrom(S.initial(), {"mem", "write", {0, 9}}).empty());
  EXPECT_TRUE(S.completionsFrom(S.initial(), {"mem", "cas", {0}}).empty());
  EXPECT_TRUE(S.completionsFrom(S.initial(), {"other", "read", {0}}).empty());
}

TEST(RegisterSpec, ProbeAlphabetCoversReadsAndWrites) {
  RegisterSpec S = spec();
  // 2 regs x 3 vals x {read, write}.
  EXPECT_EQ(S.probeOps().size(), 12u);
}

TEST(RegisterSpec, HintDifferentRegistersYes) {
  RegisterSpec S = spec();
  EXPECT_EQ(S.leftMoverHint(wr(0, 1), wr(1, 2)), Tri::Yes);
  EXPECT_EQ(S.leftMoverHint(rd(0, 0), wr(1, 2)), Tri::Yes);
}

TEST(RegisterSpec, HintSameRegisterTable) {
  RegisterSpec S = spec();
  // Reads commute with reads.
  EXPECT_EQ(S.leftMoverHint(rd(0, 1), rd(0, 1)), Tri::Yes);
  // read=x <| write(v): only when x == v.
  EXPECT_EQ(S.leftMoverHint(rd(0, 1), wr(0, 1)), Tri::Yes);
  EXPECT_EQ(S.leftMoverHint(rd(0, 1), wr(0, 2)), Tri::No);
  // write(v) <| read=x: only when x != v (vacuous) ... x == v refuted.
  EXPECT_EQ(S.leftMoverHint(wr(0, 1), rd(0, 1)), Tri::No);
  EXPECT_EQ(S.leftMoverHint(wr(0, 1), rd(0, 2)), Tri::Yes);
  // Writes of different values do not commute; same value does.
  EXPECT_EQ(S.leftMoverHint(wr(0, 1), wr(0, 2)), Tri::No);
  EXPECT_EQ(S.leftMoverHint(wr(0, 1), wr(0, 1)), Tri::Yes);
  // A write recorded with a result it cannot return is never allowed, so
  // it moves vacuously: the hint runs the same step as successors.
  Operation BadWrite = wr(0, 1);
  BadWrite.Result = 0;
  EXPECT_EQ(S.leftMoverHint(BadWrite, rd(0, 1)),
            MoverChecker(S).leftMoverSemantic(BadWrite, rd(0, 1)));
}

TEST(RegisterSpec, HintAgreesWithSemantics) {
  for (const RegisterSpec &S : {spec(), RegisterSpec("mem", 3, 4)})
    EXPECT_EQ(hintDisagreements(S), std::vector<std::string>{}) << S.name();
}

TEST(RegisterSpec, SuccessorsRejectWrongResult) {
  RegisterSpec S = spec();
  Operation BadWrite = wr(0, 1);
  BadWrite.Result = 2; // write echoes its value; 2 != 1.
  EXPECT_TRUE(S.successors("0,0", BadWrite).empty());
}

TEST(RegisterSpec, Name) {
  EXPECT_EQ(spec().name(), "registers(mem,r=2,v=3)");
}

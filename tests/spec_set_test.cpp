//===- tests/spec_set_test.cpp - SetSpec ------------------------------------===//

#include "spec/SetSpec.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace pushpull;
using testutil::hintDisagreements;
using testutil::mkOp;

namespace {

SetSpec spec() { return SetSpec("set", 3); }

Operation add(Value K, Value R, OpId Id = 1) {
  return mkOp(Id, "set", "add", {K}, R);
}
Operation rem(Value K, Value R, OpId Id = 1) {
  return mkOp(Id, "set", "remove", {K}, R);
}
Operation has(Value K, Value R, OpId Id = 1) {
  return mkOp(Id, "set", "contains", {K}, R);
}

} // namespace

TEST(SetSpec, EmptyInitially) {
  SetSpec S = spec();
  EXPECT_TRUE(S.allowed({has(0, 0), has(1, 0), has(2, 0)}));
  EXPECT_FALSE(S.allowed({has(0, 1)}));
}

TEST(SetSpec, AddReportsInsertion) {
  SetSpec S = spec();
  EXPECT_TRUE(S.allowed({add(1, 1, 1), add(1, 0, 2)}));
  EXPECT_FALSE(S.allowed({add(1, 1, 1), add(1, 1, 2)}));
}

TEST(SetSpec, RemoveUndoesAdd) {
  SetSpec S = spec();
  EXPECT_TRUE(S.allowed({add(1, 1, 1), rem(1, 1, 2), has(1, 0, 3)}));
  EXPECT_FALSE(S.allowed({rem(1, 1, 1)}));
  EXPECT_TRUE(S.allowed({rem(1, 0, 1)}));
}

TEST(SetSpec, PrefixClosed) {
  SetSpec S = spec();
  std::vector<Operation> Log = {add(0, 1, 1), add(1, 1, 2), rem(0, 1, 3),
                                has(0, 0, 4), has(1, 1, 5)};
  ASSERT_TRUE(S.allowed(Log));
  for (size_t N = 0; N <= Log.size(); ++N)
    EXPECT_TRUE(S.allowed({Log.begin(), Log.begin() + N}));
}

TEST(SetSpec, CompletionsFollowState) {
  SetSpec S = spec();
  auto C0 = S.completionsFrom(S.initial(), {"set", "add", {1}});
  ASSERT_EQ(C0.size(), 1u);
  EXPECT_EQ(C0[0].Result, Value(1));
  StateSet After = S.denote({add(1, 1, 1)});
  auto C1 = S.completionsFrom(After, {"set", "add", {1}});
  ASSERT_EQ(C1.size(), 1u);
  EXPECT_EQ(C1[0].Result, Value(0));
}

TEST(SetSpec, OutOfUniverseRejected) {
  SetSpec S = spec();
  EXPECT_TRUE(S.completionsFrom(S.initial(), {"set", "add", {7}}).empty());
  EXPECT_TRUE(S.completionsFrom(S.initial(), {"set", "union", {0}}).empty());
}

TEST(SetSpec, DistinctKeysCommute) {
  SetSpec S = spec();
  EXPECT_EQ(S.leftMoverHint(add(0, 1), add(1, 1)), Tri::Yes);
  EXPECT_EQ(S.leftMoverHint(rem(0, 1), has(2, 0)), Tri::Yes);
}

TEST(SetSpec, SameKeyTable) {
  SetSpec S = spec();
  // Two successful adds of the same key cannot both report insertion in
  // either order... the second one must report 0, so add=1;add=0 is the
  // allowed sequence and its swap add=0;add=1 is not.
  EXPECT_EQ(S.leftMoverHint(add(1, 1), add(1, 0)), Tri::No);
  // contains=1 after add=1 does not move left of it.
  EXPECT_EQ(S.leftMoverHint(add(1, 1), has(1, 1)), Tri::No);
  // contains on an untouched key commutes with itself.
  EXPECT_EQ(S.leftMoverHint(has(1, 0), has(1, 0)), Tri::Yes);
  // add=1 then remove=1: swapping gives remove=1 first, which needs the
  // key present — refutable from the empty state.
  EXPECT_EQ(S.leftMoverHint(add(1, 1), rem(1, 1)), Tri::No);
}

TEST(SetSpec, HintAgreesWithSemantics) {
  for (const SetSpec &S : {spec(), SetSpec("set", 5)})
    EXPECT_EQ(hintDisagreements(S), std::vector<std::string>{}) << S.name();
}

TEST(SetSpec, ProbeAlphabetSize) {
  // 3 keys x 3 methods x 2 results.
  EXPECT_EQ(spec().probeOps().size(), 18u);
}

TEST(SetSpec, SuccessorsCheckResult) {
  SetSpec S = spec();
  EXPECT_FALSE(S.successors("0,0,0", add(1, 1)).empty());
  EXPECT_TRUE(S.successors("0,0,0", add(1, 0)).empty());
  EXPECT_EQ(S.successors("0,0,0", add(1, 1))[0], "0,1,0");
}

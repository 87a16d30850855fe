//===- tests/spec_counter_test.cpp - CounterSpec ----------------------------===//

#include "spec/CounterSpec.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace pushpull;
using testutil::hintDisagreements;
using testutil::mkOp;

namespace {

CounterSpec spec() { return CounterSpec("c", 2, 4); }

Operation inc(Value I, OpId Id = 1) { return mkOp(Id, "c", "inc", {I}); }
Operation dec(Value I, OpId Id = 1) { return mkOp(Id, "c", "dec", {I}); }
Operation add(Value I, Value K, OpId Id = 1) {
  return mkOp(Id, "c", "add", {I, K});
}
Operation rd(Value I, Value V, OpId Id = 1) {
  return mkOp(Id, "c", "read", {I}, V);
}

} // namespace

TEST(CounterSpec, StartsAtZero) {
  CounterSpec S = spec();
  EXPECT_TRUE(S.allowed({rd(0, 0), rd(1, 0)}));
  EXPECT_FALSE(S.allowed({rd(0, 1)}));
}

TEST(CounterSpec, IncThenRead) {
  CounterSpec S = spec();
  EXPECT_TRUE(S.allowed({inc(0, 1), rd(0, 1, 2)}));
  EXPECT_TRUE(S.allowed({inc(0, 1), inc(0, 2), rd(0, 2, 3)}));
  EXPECT_FALSE(S.allowed({inc(0, 1), rd(0, 0, 2)}));
}

TEST(CounterSpec, ModularWraparound) {
  CounterSpec S = spec();
  EXPECT_TRUE(
      S.allowed({inc(0, 1), inc(0, 2), inc(0, 3), inc(0, 4), rd(0, 0, 5)}));
  EXPECT_TRUE(S.allowed({dec(0, 1), rd(0, 3, 2)}));
}

TEST(CounterSpec, AddArbitraryDelta) {
  CounterSpec S = spec();
  EXPECT_TRUE(S.allowed({add(0, 3, 1), rd(0, 3, 2)}));
  EXPECT_TRUE(S.allowed({add(0, -1, 1), rd(0, 3, 2)}));
  EXPECT_TRUE(S.allowed({add(1, 6, 1), rd(1, 2, 2)}));
}

TEST(CounterSpec, BlindUpdatesHaveNoResult) {
  CounterSpec S = spec();
  Operation BadInc = inc(0);
  BadInc.Result = 1;
  EXPECT_FALSE(S.allowed({BadInc}));
}

TEST(CounterSpec, PrefixClosed) {
  CounterSpec S = spec();
  std::vector<Operation> Log = {inc(0, 1), inc(1, 2), rd(0, 1, 3), dec(0, 4),
                                rd(0, 0, 5)};
  ASSERT_TRUE(S.allowed(Log));
  for (size_t N = 0; N <= Log.size(); ++N)
    EXPECT_TRUE(S.allowed({Log.begin(), Log.begin() + N}));
}

TEST(CounterSpec, BlindUpdatesCommute) {
  CounterSpec S = spec();
  EXPECT_EQ(S.leftMoverHint(inc(0), inc(0)), Tri::Yes);
  EXPECT_EQ(S.leftMoverHint(inc(0), dec(0)), Tri::Yes);
  EXPECT_EQ(S.leftMoverHint(add(0, 2), inc(0)), Tri::Yes);
  EXPECT_EQ(S.leftMoverHint(inc(0), inc(1)), Tri::Yes);
}

TEST(CounterSpec, ReadsDoNotCommuteWithUpdates) {
  CounterSpec S = spec();
  // read=1 after inc cannot move before it (would need value 1 already).
  EXPECT_EQ(S.leftMoverHint(inc(0), rd(0, 1)), Tri::No);
  // read=0 then inc: swapping puts the read after the inc — wrong value.
  EXPECT_EQ(S.leftMoverHint(rd(0, 0), inc(0)), Tri::No);
  // Reads commute with reads.
  EXPECT_EQ(S.leftMoverHint(rd(0, 0), rd(0, 0)), Tri::Yes);
  // Reads commute with updates of *other* counters.
  EXPECT_EQ(S.leftMoverHint(rd(0, 0), inc(1)), Tri::Yes);
}

TEST(CounterSpec, HintAgreesWithSemantics) {
  for (const CounterSpec &S : {spec(), CounterSpec("c", 3, 5)})
    EXPECT_EQ(hintDisagreements(S), std::vector<std::string>{}) << S.name();
}

TEST(CounterSpec, Completions) {
  CounterSpec S = spec();
  auto C = S.completionsFrom(S.initial(), {"c", "inc", {0}});
  ASSERT_EQ(C.size(), 1u);
  EXPECT_FALSE(C[0].Result.has_value());
  auto R = S.completionsFrom(S.denote({inc(0, 1)}), {"c", "read", {0}});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Result, Value(1));
}

TEST(CounterSpec, DomainChecks) {
  CounterSpec S = spec();
  EXPECT_TRUE(S.completionsFrom(S.initial(), {"c", "inc", {5}}).empty());
  EXPECT_TRUE(S.completionsFrom(S.initial(), {"c", "mul", {0}}).empty());
  EXPECT_TRUE(S.completionsFrom(S.initial(), {"x", "inc", {0}}).empty());
}

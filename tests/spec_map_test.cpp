//===- tests/spec_map_test.cpp - MapSpec ------------------------------------===//

#include "spec/MapSpec.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace pushpull;
using testutil::hintDisagreements;
using testutil::mkOp;

namespace {

MapSpec spec() { return MapSpec("ht", 3, 2); }

Operation put(Value K, Value V, Value Old, OpId Id = 1) {
  return mkOp(Id, "ht", "put", {K, V}, Old);
}
Operation get(Value K, Value R, OpId Id = 1) {
  return mkOp(Id, "ht", "get", {K}, R);
}
Operation rem(Value K, Value R, OpId Id = 1) {
  return mkOp(Id, "ht", "remove", {K}, R);
}
Operation hasKey(Value K, Value R, OpId Id = 1) {
  return mkOp(Id, "ht", "containsKey", {K}, R);
}

} // namespace

TEST(MapSpec, InitiallyAbsent) {
  MapSpec S = spec();
  EXPECT_TRUE(S.allowed({get(0, MapSpec::Absent)}));
  EXPECT_FALSE(S.allowed({get(0, 0)}));
  EXPECT_TRUE(S.allowed({hasKey(1, 0)}));
}

TEST(MapSpec, PutReturnsPrevious) {
  MapSpec S = spec();
  // First put returns Absent (Figure 2's "insert" case)...
  EXPECT_TRUE(S.allowed({put(1, 0, MapSpec::Absent, 1)}));
  // ...second returns the old value (the "update" case).
  EXPECT_TRUE(S.allowed({put(1, 0, MapSpec::Absent, 1), put(1, 1, 0, 2)}));
  EXPECT_FALSE(S.allowed({put(1, 0, 1, 1)}));
}

TEST(MapSpec, Figure2InverseLaws) {
  // The abort path of Figure 2: put returning Absent is inverted by
  // remove; put returning old is inverted by put(key, old).  Both
  // inverses restore a state where get sees the original mapping.
  MapSpec S = spec();
  EXPECT_TRUE(S.allowed({put(1, 0, MapSpec::Absent, 1), rem(1, 0, 2),
                         get(1, MapSpec::Absent, 3)}));
  EXPECT_TRUE(S.allowed({put(1, 0, MapSpec::Absent, 1), put(1, 1, 0, 2),
                         put(1, 0, 1, 3), get(1, 0, 4)}));
}

TEST(MapSpec, RemoveAndContains) {
  MapSpec S = spec();
  EXPECT_TRUE(S.allowed({put(2, 1, MapSpec::Absent, 1), hasKey(2, 1, 2),
                         rem(2, 1, 3), hasKey(2, 0, 4)}));
  EXPECT_TRUE(S.allowed({rem(0, MapSpec::Absent, 1)}));
}

TEST(MapSpec, PrefixClosed) {
  MapSpec S = spec();
  std::vector<Operation> Log = {put(0, 1, MapSpec::Absent, 1),
                                put(1, 0, MapSpec::Absent, 2), get(0, 1, 3),
                                rem(0, 1, 4), get(0, MapSpec::Absent, 5)};
  ASSERT_TRUE(S.allowed(Log));
  for (size_t N = 0; N <= Log.size(); ++N)
    EXPECT_TRUE(S.allowed({Log.begin(), Log.begin() + N}));
}

TEST(MapSpec, CompletionsTrackState) {
  MapSpec S = spec();
  auto C = S.completionsFrom(S.initial(), {"ht", "put", {0, 1}});
  ASSERT_EQ(C.size(), 1u);
  EXPECT_EQ(C[0].Result, MapSpec::Absent);
  StateSet After = S.denote({put(0, 1, MapSpec::Absent, 1)});
  auto C2 = S.completionsFrom(After, {"ht", "get", {0}});
  ASSERT_EQ(C2.size(), 1u);
  EXPECT_EQ(C2[0].Result, Value(1));
}

TEST(MapSpec, DomainChecks) {
  MapSpec S = spec();
  EXPECT_TRUE(S.completionsFrom(S.initial(), {"ht", "get", {9}}).empty());
  EXPECT_TRUE(S.completionsFrom(S.initial(), {"ht", "put", {0, 5}}).empty());
  EXPECT_TRUE(S.completionsFrom(S.initial(), {"ht", "clear", {}}).empty());
}

TEST(MapSpec, DistinctKeysCommute) {
  MapSpec S = spec();
  EXPECT_EQ(S.leftMoverHint(put(0, 1, MapSpec::Absent),
                            put(1, 1, MapSpec::Absent)),
            Tri::Yes);
  EXPECT_EQ(S.leftMoverHint(get(0, MapSpec::Absent), rem(2, MapSpec::Absent)),
            Tri::Yes);
}

TEST(MapSpec, SameKeyConflicts) {
  MapSpec S = spec();
  // Two inserting puts on the same key: the second must see the first.
  EXPECT_EQ(S.leftMoverHint(put(0, 1, MapSpec::Absent), put(0, 1, 1)),
            Tri::No);
  // get=v after put(v) cannot move before it.
  EXPECT_EQ(S.leftMoverHint(put(0, 1, MapSpec::Absent), get(0, 1)), Tri::No);
  // Two gets commute.
  EXPECT_EQ(S.leftMoverHint(get(0, MapSpec::Absent), get(0, MapSpec::Absent)),
            Tri::Yes);
}

TEST(MapSpec, HintAgreesWithSemantics) {
  for (const MapSpec &S : {spec(), MapSpec("ht", 4, 2)})
    EXPECT_EQ(hintDisagreements(S), std::vector<std::string>{}) << S.name();
}

TEST(MapSpec, Name) { EXPECT_EQ(spec().name(), "map(ht,k=3,v=2)"); }

//===- tests/op_log_test.cpp - Stacks, operations, logs ---------------------===//

#include "core/Log.h"
#include "core/Op.h"

#include <gtest/gtest.h>

using namespace pushpull;

namespace {

Operation op(OpId Id, const std::string &Obj, const std::string &Mth,
             std::vector<Value> Args = {},
             std::optional<Value> Result = std::nullopt) {
  Operation O;
  O.Call = {Obj, Mth, std::move(Args)};
  O.Result = Result;
  O.Id = Id;
  return O;
}

LocalEntry localEntry(OpId Id, LocalKind K) {
  LocalEntry E;
  E.Op = op(Id, "o", "m");
  E.Kind = K;
  return E;
}

GlobalEntry globalEntry(OpId Id, GlobalKind K, TxId Owner = 0) {
  GlobalEntry E;
  E.Op = op(Id, "o", "m");
  E.Kind = K;
  E.Owner = Owner;
  return E;
}

} // namespace

TEST(Stack, GetSetBind) {
  Stack S;
  EXPECT_TRUE(S.empty());
  EXPECT_FALSE(S.get("x").has_value());
  S.set("x", 5);
  EXPECT_EQ(S.getOrDie("x"), 5);
  Stack S2 = S.bind("y", 7);
  EXPECT_FALSE(S.get("y").has_value()) << "bind must not mutate";
  EXPECT_EQ(S2.getOrDie("x"), 5);
  EXPECT_EQ(S2.getOrDie("y"), 7);
  EXPECT_EQ(S2.size(), 2u);
}

TEST(Stack, EqualityAndPrinting) {
  Stack A, B;
  A.set("x", 1);
  B.set("x", 1);
  EXPECT_EQ(A, B);
  B.set("y", 2);
  EXPECT_NE(A, B);
  EXPECT_EQ(A.toString(), "[x->1]");
}

TEST(Operation, IdentityIsById) {
  Operation A = op(1, "s", "add", {3}, 1);
  Operation B = op(1, "s", "remove", {4}, 0);
  Operation C = op(2, "s", "add", {3}, 1);
  EXPECT_TRUE(A.sameIdAs(B));
  EXPECT_FALSE(A.sameIdAs(C));
}

TEST(Operation, Printing) {
  EXPECT_EQ(op(7, "set", "add", {3}, 1).toString(), "#7:set.add(3)=1");
  EXPECT_EQ(op(2, "c", "inc", {0}).toString(), "#2:c.inc(0)");
}

TEST(OpIdSource, Monotone) {
  OpIdSource Ids;
  OpId A = Ids.fresh(), B = Ids.fresh(), C = Ids.fresh();
  EXPECT_LT(A, B);
  EXPECT_LT(B, C);
  EXPECT_EQ(Ids.lastIssued(), C);
}

TEST(LocalLog, AppendIndexContains) {
  LocalLog L;
  L.append(localEntry(1, LocalKind::NotPushed));
  L.append(localEntry(2, LocalKind::Pushed));
  L.append(localEntry(3, LocalKind::Pulled));
  EXPECT_EQ(L.size(), 3u);
  EXPECT_EQ(L.indexOf(2), 1u);
  EXPECT_EQ(L.indexOf(9), LocalLog::npos);
  EXPECT_TRUE(L.contains(3));
  EXPECT_FALSE(L.contains(4));
}

TEST(LocalLog, Projections) {
  LocalLog L;
  L.append(localEntry(1, LocalKind::NotPushed));
  L.append(localEntry(2, LocalKind::Pushed));
  L.append(localEntry(3, LocalKind::Pulled));
  L.append(localEntry(4, LocalKind::NotPushed));
  auto NP = L.project(LocalKind::NotPushed);
  ASSERT_EQ(NP.size(), 2u);
  EXPECT_EQ(NP[0].Id, 1u);
  EXPECT_EQ(NP[1].Id, 4u);
  auto Own = L.ownOps();
  ASSERT_EQ(Own.size(), 3u);
  EXPECT_EQ(Own[0].Id, 1u);
  EXPECT_EQ(Own[1].Id, 2u);
  EXPECT_EQ(Own[2].Id, 4u);
  EXPECT_EQ(L.indicesOf(LocalKind::Pulled), (LocalLog::IndexList{2}));
}

TEST(LocalLog, OpsOmitting) {
  LocalLog L;
  L.append(localEntry(1, LocalKind::NotPushed));
  L.append(localEntry(2, LocalKind::NotPushed));
  L.append(localEntry(3, LocalKind::NotPushed));
  auto Ops = L.opsOmitting(1);
  ASSERT_EQ(Ops.size(), 2u);
  EXPECT_EQ(Ops[0].Id, 1u);
  EXPECT_EQ(Ops[1].Id, 3u);
}

TEST(LocalLog, TruncateAndRemove) {
  LocalLog L;
  L.append(localEntry(1, LocalKind::NotPushed));
  L.append(localEntry(2, LocalKind::NotPushed));
  L.append(localEntry(3, LocalKind::NotPushed));
  L.removeAt(0);
  EXPECT_EQ(L[0].Op.Id, 2u);
  L.truncate(1);
  EXPECT_EQ(L.size(), 1u);
  EXPECT_EQ(L[0].Op.Id, 2u);
}

TEST(LocalLog, SetKind) {
  LocalLog L;
  L.append(localEntry(1, LocalKind::NotPushed));
  L.setKind(0, LocalKind::Pushed);
  EXPECT_EQ(L[0].Kind, LocalKind::Pushed);
}

TEST(GlobalLog, MinusRemovesLocalOps) {
  GlobalLog G;
  G.append(globalEntry(1, GlobalKind::Committed));
  G.append(globalEntry(2, GlobalKind::Uncommitted));
  G.append(globalEntry(3, GlobalKind::Uncommitted));
  LocalLog L;
  L.append(localEntry(2, LocalKind::Pushed));
  auto Rest = G.minus(L);
  ASSERT_EQ(Rest.size(), 2u);
  EXPECT_EQ(Rest[0].Id, 1u);
  EXPECT_EQ(Rest[1].Id, 3u);
}

TEST(GlobalLog, UncommittedNotIn) {
  GlobalLog G;
  G.append(globalEntry(1, GlobalKind::Committed));
  G.append(globalEntry(2, GlobalKind::Uncommitted));
  G.append(globalEntry(3, GlobalKind::Uncommitted));
  LocalLog L;
  L.append(localEntry(3, LocalKind::Pushed));
  auto U = G.uncommittedNotIn(L);
  ASSERT_EQ(U.size(), 1u);
  EXPECT_EQ(U[0].Id, 2u);
}

TEST(GlobalLog, ContainsAll) {
  GlobalLog G;
  G.append(globalEntry(1, GlobalKind::Uncommitted));
  G.append(globalEntry(2, GlobalKind::Uncommitted));
  LocalLog L;
  L.append(localEntry(1, LocalKind::Pushed));
  EXPECT_TRUE(G.containsAll(L));
  L.append(localEntry(5, LocalKind::Pushed));
  EXPECT_FALSE(G.containsAll(L));
}

TEST(GlobalLog, CommitOwnedFlipsOnlyOwned) {
  GlobalLog G;
  G.append(globalEntry(1, GlobalKind::Uncommitted));
  G.append(globalEntry(2, GlobalKind::Uncommitted));
  G.append(globalEntry(3, GlobalKind::Committed));
  LocalLog L;
  L.append(localEntry(1, LocalKind::Pushed));
  G.commitOwned(L);
  EXPECT_EQ(G[0].Kind, GlobalKind::Committed);
  EXPECT_EQ(G[1].Kind, GlobalKind::Uncommitted);
  EXPECT_EQ(G[2].Kind, GlobalKind::Committed);
}

TEST(GlobalLog, ProjectKeepsOrder) {
  GlobalLog G;
  G.append(globalEntry(1, GlobalKind::Committed));
  G.append(globalEntry(2, GlobalKind::Uncommitted));
  G.append(globalEntry(3, GlobalKind::Committed));
  auto C = G.project(GlobalKind::Committed);
  ASSERT_EQ(C.size(), 2u);
  EXPECT_EQ(C[0].Id, 1u);
  EXPECT_EQ(C[1].Id, 3u);
}

TEST(FlagNames, Render) {
  EXPECT_EQ(toString(LocalKind::NotPushed), "npshd");
  EXPECT_EQ(toString(LocalKind::Pushed), "pshd");
  EXPECT_EQ(toString(LocalKind::Pulled), "pld");
  EXPECT_EQ(toString(GlobalKind::Uncommitted), "gUCmt");
  EXPECT_EQ(toString(GlobalKind::Committed), "gCmt");
}

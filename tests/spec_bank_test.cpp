//===- tests/spec_bank_test.cpp - BankSpec -----------------------------------===//

#include "spec/BankSpec.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <limits>

using namespace pushpull;
using testutil::hintDisagreements;
using testutil::mkOp;

namespace {

BankSpec spec() { return BankSpec("bank", 2, 4, 2); }

Operation dep(Value A, Value K, OpId Id = 1) {
  return mkOp(Id, "bank", "deposit", {A, K});
}
Operation wd(Value A, Value K, Value R, OpId Id = 1) {
  return mkOp(Id, "bank", "withdraw", {A, K}, R);
}
Operation bal(Value A, Value R, OpId Id = 1) {
  return mkOp(Id, "bank", "balance", {A}, R);
}
Operation xfer(Value From, Value To, Value K, Value R, OpId Id = 1) {
  return mkOp(Id, "bank", "transfer", {From, To, K}, R);
}

} // namespace

TEST(BankSpec, InitialBalances) {
  BankSpec S = spec();
  EXPECT_TRUE(S.allowed({bal(0, 2), bal(1, 2)}));
  EXPECT_FALSE(S.allowed({bal(0, 0)}));
}

TEST(BankSpec, DepositAndWithdraw) {
  BankSpec S = spec();
  EXPECT_TRUE(S.allowed({dep(0, 1, 1), bal(0, 3, 2)}));
  EXPECT_TRUE(S.allowed({wd(0, 2, 1, 1), bal(0, 0, 2)}));
  EXPECT_TRUE(S.allowed({wd(0, 3, 0, 1), bal(0, 2, 2)}))
      << "failed withdraw leaves the balance alone";
  EXPECT_FALSE(S.allowed({wd(0, 3, 1, 1)})) << "insufficient funds";
}

TEST(BankSpec, DepositClampsAtCap) {
  BankSpec S = spec();
  EXPECT_TRUE(S.allowed({dep(0, 4, 1), bal(0, 4, 2)}));
  EXPECT_TRUE(S.allowed({dep(0, 4, 1), dep(0, 4, 2), bal(0, 4, 3)}));
  // A deposit as large as a Value holds lands on the cap, not past it.
  const Value Huge = std::numeric_limits<Value>::max();
  EXPECT_TRUE(S.allowed({dep(0, Huge, 1), bal(0, 4, 2)}));
  EXPECT_FALSE(S.allowed({dep(0, Huge, 1), bal(0, -Huge, 2)}));
}

TEST(BankSpec, TransferMovesFunds) {
  BankSpec S = spec();
  EXPECT_TRUE(S.allowed({xfer(0, 1, 2, 1, 1), bal(0, 0, 2), bal(1, 4, 3)}));
  EXPECT_TRUE(S.allowed({xfer(0, 1, 3, 0, 1), bal(0, 2, 2)}))
      << "failed transfer is a no-op";
  EXPECT_FALSE(S.allowed({xfer(0, 1, 3, 1, 1)}));
}

TEST(BankSpec, SelfTransferIsNoOp) {
  BankSpec S = spec();
  EXPECT_TRUE(S.allowed({xfer(0, 0, 1, 1, 1), bal(0, 2, 2)}));
}

TEST(BankSpec, PrefixClosed) {
  BankSpec S = spec();
  std::vector<Operation> Log = {dep(0, 1, 1), wd(1, 2, 1, 2),
                                xfer(0, 1, 2, 1, 3), bal(0, 1, 4),
                                bal(1, 2, 5)};
  ASSERT_TRUE(S.allowed(Log));
  for (size_t N = 0; N <= Log.size(); ++N)
    EXPECT_TRUE(S.allowed({Log.begin(), Log.begin() + N}));
}

TEST(BankSpec, Completions) {
  BankSpec S = spec();
  auto W = S.completionsFrom(S.initial(), {"bank", "withdraw", {0, 2}});
  ASSERT_EQ(W.size(), 1u);
  EXPECT_EQ(W[0].Result, Value(1));
  auto W2 = S.completionsFrom(S.initial(), {"bank", "withdraw", {0, 3}});
  ASSERT_EQ(W2.size(), 1u);
  EXPECT_EQ(W2[0].Result, Value(0));
  auto D = S.completionsFrom(S.initial(), {"bank", "deposit", {0, 1}});
  ASSERT_EQ(D.size(), 1u);
  EXPECT_FALSE(D[0].Result.has_value());
}

TEST(BankSpec, DifferentAccountsCommute) {
  BankSpec S = spec();
  EXPECT_EQ(S.leftMoverHint(dep(0, 1), dep(1, 1)), Tri::Yes);
  EXPECT_EQ(S.leftMoverHint(wd(0, 1, 1), bal(1, 2)), Tri::Yes);
}

TEST(BankSpec, SameAccountConditionalCommutativity) {
  BankSpec S = spec();
  // Two successful withdrawals of 1 from the same account commute: in any
  // state where both succeed in one order they succeed in the other.
  EXPECT_EQ(S.leftMoverHint(wd(0, 1, 1, 1), wd(0, 1, 1, 2)), Tri::Yes);
  // Deposit then balance observation does not commute.
  EXPECT_EQ(S.leftMoverHint(dep(0, 1), bal(0, 3)), Tri::No);
  // Deposit at the cap boundary does not commute with a withdraw: the
  // clamp makes the final balances order-dependent.
  EXPECT_EQ(S.leftMoverHint(dep(0, 4), wd(0, 1, 1)), Tri::No);
}

TEST(BankSpec, TransfersLeftToSemanticEngine) {
  BankSpec S = spec();
  EXPECT_EQ(S.leftMoverHint(xfer(0, 1, 1, 1), dep(0, 1)), Tri::Unknown);
  // ...and the semantic engine decides them.
  MoverChecker Movers(S);
  // Transfer then deposit to the source: swapping can change whether the
  // transfer succeeds?  Both succeed from every reachable state where the
  // first order is allowed iff... decided exactly by the engine:
  Tri V = Movers.leftMover(xfer(0, 1, 4, 1, 1), dep(0, 2, 2));
  EXPECT_NE(V, Tri::Unknown) << "small bank: the semantic check is exact";
}

TEST(BankSpec, HintAgreesWithSemantics) {
  // Small banks so the semantic cross-validation stays fast.
  for (const BankSpec &S :
       {BankSpec("bank", 2, 3, 1), BankSpec("bank", 3, 4, 2)})
    EXPECT_EQ(hintDisagreements(S), std::vector<std::string>{}) << S.name();
}

TEST(BankSpec, DomainChecks) {
  BankSpec S = spec();
  EXPECT_TRUE(S.completionsFrom(S.initial(), {"bank", "deposit", {9, 1}})
                  .empty());
  EXPECT_TRUE(
      S.completionsFrom(S.initial(), {"bank", "transfer", {0, 9, 1}})
          .empty());
  EXPECT_TRUE(S.completionsFrom(S.initial(), {"bank", "audit", {0}}).empty());
}

TEST(BankSpec, Name) { EXPECT_EQ(spec().name(), "bank(bank,n=2,cap=4)"); }

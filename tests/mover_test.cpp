//===- tests/mover_test.cpp - Definition 4.1 --------------------------------===//
//
// The left-mover relation over logs: the Section 5.1 mnemonic (order in
// the expression = order in the real log), memoization, the paper's
// Section 2 boosting example (hashtable puts on distinct keys), the
// reachable family's one bound rule with its Unknown behaviour, and the
// per-pair verdict memo agreeing with fresh checkers.
//
//===----------------------------------------------------------------------===//

#include "core/Mover.h"

#include "TestUtil.h"
#include "spec/BankSpec.h"
#include "spec/CompositeSpec.h"
#include "spec/CounterSpec.h"
#include "spec/MapSpec.h"
#include "spec/QueueSpec.h"
#include "spec/RegisterSpec.h"
#include "spec/SetSpec.h"

#include <memory>

#include <gtest/gtest.h>

using namespace pushpull;
using testutil::mkOp;

namespace {

Operation rd(Value R, Value V, OpId Id = 1) {
  return mkOp(Id, "mem", "read", {R}, V);
}
Operation wr(Value R, Value V, OpId Id = 1) {
  return mkOp(Id, "mem", "write", {R, V}, V);
}

} // namespace

TEST(Mover, Section2BoostingExample) {
  // The paper's worked criterion: ht.put(key1,val1); ht.put(key2,val2)
  // reaches the same state as the reverse provided key1 != key2.
  MapSpec S("ht", 4, 2);
  MoverChecker Movers(S);
  Operation P1 = mkOp(1, "ht", "put", {0, 1}, MapSpec::Absent);
  Operation P2 = mkOp(2, "ht", "put", {1, 1}, MapSpec::Absent);
  EXPECT_EQ(Movers.leftMover(P1, P2), Tri::Yes);
  EXPECT_EQ(Movers.leftMover(P2, P1), Tri::Yes);
  // Same key: the second put must observe the first.
  Operation P3 = mkOp(3, "ht", "put", {0, 1}, 1);
  EXPECT_EQ(Movers.leftMover(P1, P3), Tri::No);
}

TEST(Mover, SemanticMatchesMnemonicOnRegisters) {
  // rd=0 <| wr(1): real log rd.wr may be re-serialized wr.rd only if the
  // read would still return 0 — refuted.
  RegisterSpec S("mem", 1, 2);
  MoverChecker Movers(S);
  EXPECT_EQ(Movers.leftMoverSemantic(rd(0, 0), wr(0, 1)), Tri::No);
  // rd=1 <| wr(1): whenever rd=1.wr(1) is allowed the swap is too.
  EXPECT_EQ(Movers.leftMoverSemantic(rd(0, 1), wr(0, 1)), Tri::Yes);
  // wr(1) <| rd=0: the real sequence wr(1).rd=0 is never allowed: vacuous.
  EXPECT_EQ(Movers.leftMoverSemantic(wr(0, 1), rd(0, 0)), Tri::Yes);
  // wr(1) <| rd=1 is refuted from states where the register is not 1.
  EXPECT_EQ(Movers.leftMoverSemantic(wr(0, 1), rd(0, 1)), Tri::No);
}

TEST(Mover, MemoizationByCallAndResult) {
  RegisterSpec S("mem", 1, 2);
  MoverChecker Movers(S);
  ASSERT_EQ(Movers.leftMoverSemantic(rd(0, 0, 1), wr(0, 1, 2)), Tri::No);
  uint64_t Misses = Movers.memoMisses();
  // Same call/result with different ids and stacks: memo hit.
  Operation R2 = rd(0, 0, 77);
  R2.Pre.set("x", 3);
  ASSERT_EQ(Movers.leftMoverSemantic(R2, wr(0, 1, 88)), Tri::No);
  EXPECT_EQ(Movers.memoMisses(), Misses);
  EXPECT_GT(Movers.memoHits(), 0u);
}

TEST(Mover, HintShortCircuitsSemantic) {
  RegisterSpec S("mem", 4, 4);
  MoverChecker Movers(S);
  // Different registers: answered by the hint, no reachable enumeration.
  EXPECT_EQ(Movers.leftMover(wr(0, 1), wr(1, 1)), Tri::Yes);
  EXPECT_EQ(Movers.memoMisses(), 0u) << "hint must not touch the engine";
}

TEST(Mover, ReachableEnumerationExactOnSmallSpec) {
  RegisterSpec S("mem", 2, 2);
  MoverChecker Movers(S);
  EXPECT_TRUE(Movers.family().Exact);
  // 2 registers x 2 values = 4 states, all reachable (as singletons).
  EXPECT_EQ(Movers.family().Sets.size(), 4u);
}

TEST(Mover, FamilyExactlyAtTheBoundIsExact) {
  // The frontier drains with exactly MaxReachableSets members: nothing
  // lies past the bound, so the family is the whole reachable space.
  RegisterSpec S("mem", 2, 2);
  MoverChecker Movers(S, MoverLimits{4});
  EXPECT_EQ(Movers.family().Sets.size(), 4u);
  EXPECT_TRUE(Movers.family().Exact);
  EXPECT_EQ(Movers.leftMoverSemantic(rd(0, 1), wr(0, 1)), Tri::Yes)
      << "an exact family keeps a semantic Yes";
}

TEST(Mover, FamilyStopsExactlyAtTheBound) {
  // fig2_boosting.pp's map: more reachable sets than the default bound.
  MapSpec S("map", 8, 4);
  MoverChecker Movers(S);
  ASSERT_EQ(Movers.limits().MaxReachableSets, 4096u);
  EXPECT_EQ(Movers.family().Sets.size(), 4096u);
  EXPECT_FALSE(Movers.family().Exact);
  EXPECT_EQ(Movers.reachableComputedCount(), 4096u);
}

TEST(Mover, TruncatedEnumerationYieldsUnknown) {
  RegisterSpec S("mem", 2, 3); // 9 states.
  MoverLimits Limits;
  Limits.MaxReachableSets = 2;
  MoverChecker Movers(S, Limits);
  EXPECT_FALSE(Movers.family().Exact);
  // A pair the hint cannot answer: same register, needs semantics.
  EXPECT_EQ(Movers.leftMoverSemantic(rd(0, 0), wr(0, 1)), Tri::No)
      << "refutations inside the truncated prefix are still exact";
  EXPECT_EQ(Movers.leftMoverSemantic(rd(0, 1), wr(0, 1)), Tri::Unknown)
      << "Yes degrades to Unknown under truncation";
}

TEST(Mover, QueueAlmostNothingMoves) {
  QueueSpec S("q", 2, 2);
  MoverChecker Movers(S);
  Operation EnqA = mkOp(1, "q", "enq", {0}, 1);
  Operation EnqB = mkOp(2, "q", "enq", {1}, 1);
  Operation Deq0 = mkOp(3, "q", "deq", {}, 0);
  EXPECT_EQ(Movers.leftMover(EnqA, EnqB), Tri::No);
  EXPECT_EQ(Movers.leftMover(EnqA, Deq0), Tri::No);
  // Identical enqueues commute.
  EXPECT_EQ(Movers.leftMover(EnqA, mkOp(4, "q", "enq", {0}, 1)), Tri::Yes);
}

TEST(Mover, RightMoverIsFlippedLeftMover) {
  // "x can move to the right of op" is leftMover(x, op) — check the
  // identity the PUSH criterion (ii) encoding relies on against a
  // concrete asymmetric pair.
  RegisterSpec S("mem", 1, 2);
  MoverChecker Movers(S);
  // read=0 moves right of a later... i.e. real order read.write:
  EXPECT_EQ(Movers.leftMover(rd(0, 0), wr(0, 0)), Tri::Yes);
  EXPECT_EQ(Movers.leftMover(rd(0, 0), wr(0, 1)), Tri::No);
}

TEST(Mover, WarmMemoAgreesWithFreshCheckers) {
  // leftMover memoizes its final verdict, hint or semantic, per ordered
  // pair of operation keys.  Warm a checker on every ordered probe pair,
  // then ask again: each answer must equal a fresh checker's first one
  // and, for pairs the hint leaves open, the semantic check's.
  auto Composite = std::make_shared<CompositeSpec>();
  Composite->add("mem", std::make_shared<RegisterSpec>("mem", 1, 2));
  Composite->add("c", std::make_shared<CounterSpec>("c", 1, 2));
  std::vector<std::shared_ptr<const SequentialSpec>> Specs = {
      std::make_shared<RegisterSpec>("mem", 2, 2),
      std::make_shared<CounterSpec>("c", 1, 3),
      std::make_shared<SetSpec>("set", 2),
      std::make_shared<MapSpec>("map", 2, 2),
      std::make_shared<QueueSpec>("q", 2, 2),
      std::make_shared<BankSpec>("bank", 2, 2),
      Composite};
  for (const std::shared_ptr<const SequentialSpec> &S : Specs) {
    const std::vector<Operation> &Probes = S->probes();
    MoverChecker Warm(*S);
    for (const Operation &A : Probes)
      for (const Operation &B : Probes)
        Warm.leftMover(A, B);
    uint64_t SemanticCalls = Warm.memoHits() + Warm.memoMisses();
    for (const Operation &A : Probes)
      for (const Operation &B : Probes) {
        MoverChecker Fresh(*S);
        Tri Want = Fresh.leftMover(A, B);
        std::string Tag = S->name() + ": " + A.toString() + " <| " +
                          B.toString();
        EXPECT_EQ(Warm.leftMover(A, B), Want) << Tag;
        if (S->leftMoverHint(A, B) == Tri::Unknown) {
          EXPECT_EQ(Want, MoverChecker(*S).leftMoverSemantic(A, B)) << Tag;
        }
      }
    // The second pass is served from the verdict memo, which the semantic
    // counters do not count.
    EXPECT_EQ(Warm.memoHits() + Warm.memoMisses(), SemanticCalls) << S->name();
  }
}

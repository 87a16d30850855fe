//===- tests/explorer_test.cpp - Exhaustive exploration (Theorem 5.17) -------===//

#include "sim/Explorer.h"

#include "lang/Parser.h"
#include "spec/CounterSpec.h"
#include "spec/QueueSpec.h"
#include "spec/RegisterSpec.h"
#include "spec/SetSpec.h"

#include <gtest/gtest.h>

using namespace pushpull;

TEST(Explorer, SingleThreadAllPathsSerializable) {
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  Explorer E(Spec, Movers);
  ExplorerReport R = E.explore(
      {{parseOrDie("tx { mem.write(0, 1) + (v := mem.read(0)) }")}});
  EXPECT_FALSE(R.Truncated);
  EXPECT_GT(R.TerminalConfigs, 0u);
  EXPECT_TRUE(R.clean()) << R.FirstFailure;
}

TEST(Explorer, TwoConflictingRegisterTxsAllInterleavingsSerializable) {
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  Explorer E(Spec, Movers);
  ExplorerReport R =
      E.explore({{parseOrDie("tx { v := mem.read(0); mem.write(0, 1) }")},
                 {parseOrDie("tx { mem.write(0, 0) }")}});
  EXPECT_FALSE(R.Truncated);
  EXPECT_GT(R.TerminalConfigs, 0u);
  EXPECT_GT(R.RejectedAttempts, 0u)
      << "conflicting pushes must have been rejected somewhere";
  EXPECT_TRUE(R.clean()) << R.FirstFailure;
}

TEST(Explorer, SetTransactionsWithInvariantChecking) {
  SetSpec Spec("set", 2);
  MoverChecker Movers(Spec);
  ExplorerConfig EC;
  EC.CheckInvariants = true;
  Explorer E(Spec, Movers, EC);
  ExplorerReport R =
      E.explore({{parseOrDie("tx { a := set.add(0) }")},
                 {parseOrDie("tx { b := set.add(0); c := set.remove(1) }")}});
  EXPECT_FALSE(R.Truncated);
  EXPECT_TRUE(R.clean()) << R.FirstFailure;
  EXPECT_EQ(R.InvariantViolations, 0u);
}

TEST(Explorer, BackwardRulesStaySerializable) {
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  ExplorerConfig EC;
  EC.ExploreBackwardRules = true;
  EC.MaxConfigs = 500000;
  Explorer E(Spec, Movers, EC);
  ExplorerReport R =
      E.explore({{parseOrDie("tx { mem.write(0, 1) }")},
                 {parseOrDie("tx { v := mem.read(0) }")}});
  EXPECT_TRUE(R.clean()) << R.FirstFailure;
  EXPECT_GT(R.ConfigsVisited, 10u);
}

TEST(Explorer, UncommittedPullsExploredAndStillSerializable) {
  // The non-opaque region: pulls of uncommitted effects are explored too;
  // CMT criterion (iii) gates commits so every terminal stays
  // serializable.
  CounterSpec Spec("c", 1, 3);
  MoverChecker Movers(Spec);
  ExplorerConfig EC;
  EC.ExploreUncommittedPulls = true;
  Explorer E(Spec, Movers, EC);
  ExplorerReport R = E.explore({{parseOrDie("tx { c.inc(0) }")},
                                {parseOrDie("tx { c.inc(0) }")}});
  EXPECT_FALSE(R.Truncated);
  EXPECT_TRUE(R.clean()) << R.FirstFailure;
}

TEST(Explorer, OpaqueFragmentSmallerThanFullModel) {
  CounterSpec Spec("c", 1, 3);
  MoverChecker Movers(Spec);
  ExplorerConfig Opaque;
  Opaque.ExploreUncommittedPulls = false;
  ExplorerConfig Full;
  Full.ExploreUncommittedPulls = true;
  Explorer EO(Spec, Movers, Opaque);
  Explorer EF(Spec, Movers, Full);
  std::vector<std::vector<CodePtr>> Programs = {
      {parseOrDie("tx { c.inc(0) }")}, {parseOrDie("tx { c.inc(0) }")}};
  ExplorerReport RO = EO.explore(Programs);
  ExplorerReport RF = EF.explore(Programs);
  EXPECT_LT(RO.ConfigsVisited, RF.ConfigsVisited)
      << "forbidding uncommitted pulls must shrink the state space";
  EXPECT_TRUE(RO.clean());
  EXPECT_TRUE(RF.clean());
}

TEST(Explorer, QueueNonCommutativityForcesSerialOrder) {
  QueueSpec Spec("q", 2, 2);
  MoverChecker Movers(Spec);
  Explorer E(Spec, Movers);
  ExplorerReport R = E.explore({{parseOrDie("tx { a := q.enq(0) }")},
                                {parseOrDie("tx { b := q.enq(1) }")}});
  EXPECT_FALSE(R.Truncated);
  EXPECT_TRUE(R.clean()) << R.FirstFailure;
  EXPECT_GT(R.RejectedAttempts, 0u)
      << "pushing both uncommitted enqueues must be rejected";
}

TEST(Explorer, TruncationReported) {
  RegisterSpec Spec("mem", 2, 2);
  MoverChecker Movers(Spec);
  ExplorerConfig EC;
  EC.MaxConfigs = 5;
  Explorer E(Spec, Movers, EC);
  ExplorerReport R =
      E.explore({{parseOrDie("tx { mem.write(0, 1); mem.write(1, 1) }")},
                 {parseOrDie("tx { v := mem.read(0) }")}});
  EXPECT_TRUE(R.Truncated);
}

TEST(Explorer, SearchStopsExactlyAtConfigBudget) {
  // The budget is checked before every claim, so the count stops at
  // MaxConfigs without overshooting.  The scope has 4923 configurations,
  // so the run is cut.
  CounterSpec Spec("c", 1, 3);
  MoverChecker Movers(Spec);
  ExplorerConfig EC;
  EC.MaxConfigs = 1000;
  Explorer E(Spec, Movers, EC);
  ExplorerReport R = E.explore({{parseOrDie("tx { c.inc(0) }")},
                                {parseOrDie("tx { c.inc(0) }")},
                                {parseOrDie("tx { c.inc(0) }")}});
  EXPECT_TRUE(R.Truncated);
  EXPECT_EQ(R.ConfigsVisited, 1000u);
}

TEST(Explorer, ThreeThreadsStillClean) {
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  ExplorerConfig EC;
  EC.MaxConfigs = 500000;
  Explorer E(Spec, Movers, EC);
  ExplorerReport R = E.explore({{parseOrDie("tx { mem.write(0, 1) }")},
                                {parseOrDie("tx { v := mem.read(0) }")},
                                {parseOrDie("tx { mem.write(0, 0) }")}});
  EXPECT_FALSE(R.Truncated);
  EXPECT_TRUE(R.clean()) << R.FirstFailure;
}

TEST(Explorer, GrayCriteriaAblationConfirmsNotStrictlyNecessary) {
  // The paper marks UNPUSH criterion (i) and PULL criterion (iii) gray —
  // "not strictly necessary".  The executable ablation confirms it:
  // exploring with them DISABLED still yields zero non-serializable
  // terminals, because PUSH criterion (iii) independently refuses to
  // publish any operation the now-inconsistent local view produced (the
  // transaction wedges instead of committing an anomaly).  What the gray
  // criteria buy is *hygiene*: with them enabled the doomed pull is
  // rejected up front, so the extra wedged region is never entered —
  // visible here as a strictly smaller explored state space.
  auto Explore = [](bool EnforceGray) {
    RegisterSpec Spec("mem", 1, 2);
    MoverChecker Movers(Spec);
    ExplorerConfig EC;
    EC.Machine.EnforceGrayCriteria = EnforceGray;
    Explorer E(Spec, Movers, EC);
    return E.explore(
        {{parseOrDie("tx { v := mem.read(0); w := mem.read(0) }")},
         {parseOrDie("tx { mem.write(0, 1) }")}});
  };
  ExplorerReport WithGray = Explore(true);
  EXPECT_FALSE(WithGray.Truncated);
  EXPECT_TRUE(WithGray.clean()) << WithGray.FirstFailure;

  ExplorerReport WithoutGray = Explore(false);
  EXPECT_FALSE(WithoutGray.Truncated);
  EXPECT_TRUE(WithoutGray.clean())
      << "safety must not depend on the gray criteria: "
      << WithoutGray.FirstFailure;
  EXPECT_GT(WithoutGray.ConfigsVisited, WithGray.ConfigsVisited)
      << "without the gray criteria the explorer enters the wedged region";
}

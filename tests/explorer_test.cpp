//===- tests/explorer_test.cpp - Exhaustive exploration (Theorem 5.17) -------===//

#include "sim/Explorer.h"

#include "lang/Parser.h"
#include "spec/CounterSpec.h"
#include "spec/QueueSpec.h"
#include "spec/RegisterSpec.h"
#include "spec/SetSpec.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

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
  // Threads=1: the RejectedAttempts assertion below counts *work
  // performed*, which is deterministic only for the sequential engine
  // (parallel workers may race to a configuration and re-expand it).
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
  // Runs the parallel explorer by default: everything asserted here
  // (truncation, verdicts, invariant count) is one of the deterministic
  // aggregates, so worker count must not matter.
  SetSpec Spec("set", 2);
  MoverChecker Movers(Spec);
  ExplorerConfig EC;
  EC.CheckInvariants = true;
  EC.Threads = 4;
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
  // Threads=1: asserts RejectedAttempts, which is only deterministic for
  // the sequential engine.
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

TEST(Explorer, ParallelSearchStopsExactlyAtConfigBudget) {
  // Workers race to claim fresh configurations; each claim takes its slot
  // in the budget atomically, so the count never overshoots MaxConfigs.
  // The scope has 4923 configurations, so every run is cut.
  CounterSpec Spec("c", 1, 3);
  MoverChecker Movers(Spec);
  ExplorerConfig EC;
  EC.MaxConfigs = 1000;
  EC.Threads = 4;
  for (int Run = 0; Run < 20; ++Run) {
    Explorer E(Spec, Movers, EC);
    ExplorerReport R = E.explore({{parseOrDie("tx { c.inc(0) }")},
                                  {parseOrDie("tx { c.inc(0) }")},
                                  {parseOrDie("tx { c.inc(0) }")}});
    EXPECT_TRUE(R.Truncated) << "run " << Run;
    EXPECT_EQ(R.ConfigsVisited, 1000u) << "run " << Run;
  }
}

TEST(Explorer, ThreeThreadsStillClean) {
  // The widest scope in this file runs on the worker pool by default —
  // only deterministic totals are asserted.
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  ExplorerConfig EC;
  EC.MaxConfigs = 500000;
  EC.Threads = 4;
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

TEST(Explorer, ParallelSearchMatchesSequentialTotals) {
  // Threads > 1 shards the search but keeps the visited/accounting
  // protocol, so on non-truncated explorations the deterministic
  // aggregates (configs, terminals, verdicts) must equal the Threads=1
  // run exactly — across specs, backward rules, and invariant checking.
  struct Case {
    const char *Name;
    std::function<ExplorerReport(unsigned)> Run;
  };
  auto MakeCase = [](auto MakeSpec, std::vector<std::string> Programs,
                     bool Backward = false, bool Invariants = false) {
    return [=](unsigned Threads) {
      auto Spec = MakeSpec();
      MoverChecker Movers(*Spec);
      ExplorerConfig EC;
      EC.Threads = Threads;
      EC.ExploreBackwardRules = Backward;
      EC.CheckInvariants = Invariants;
      EC.MaxConfigs = 500000;
      Explorer E(*Spec, Movers, EC);
      std::vector<std::vector<CodePtr>> Ps;
      for (const std::string &P : Programs)
        Ps.push_back({parseOrDie(P)});
      return E.explore(Ps);
    };
  };

  std::vector<Case> Cases = {
      {"register r/w vs w",
       MakeCase([] { return std::make_unique<RegisterSpec>("mem", 1, 2); },
                {"tx { v := mem.read(0); mem.write(0, 1) }",
                 "tx { mem.write(0, 0) }"})},
      // (Backward-rule explorations are inherently depth-truncated — the
      // do/undo cycles never bottom out — so they are excluded here: the
      // totals guarantee is for non-truncated searches.)
      {"register three threads",
       MakeCase([] { return std::make_unique<RegisterSpec>("mem", 1, 2); },
                {"tx { mem.write(0, 1) }", "tx { v := mem.read(0) }",
                 "tx { mem.write(0, 0) }"})},
      {"set adds + invariants",
       MakeCase([] { return std::make_unique<SetSpec>("set", 2); },
                {"tx { a := set.add(0) }",
                 "tx { b := set.add(0); c := set.remove(1) }"},
                /*Backward=*/false, /*Invariants=*/true)},
      {"queue enq vs enq",
       MakeCase([] { return std::make_unique<QueueSpec>("q", 2, 2); },
                {"tx { a := q.enq(0) }", "tx { b := q.enq(1) }"})},
  };

  for (Case &C : Cases) {
    ExplorerReport Seq = C.Run(1);
    ExplorerReport Par = C.Run(4);
    ASSERT_FALSE(Seq.Truncated) << C.Name;
    ASSERT_FALSE(Par.Truncated) << C.Name;
    EXPECT_EQ(Par.ConfigsVisited, Seq.ConfigsVisited) << C.Name;
    EXPECT_EQ(Par.TerminalConfigs, Seq.TerminalConfigs) << C.Name;
    EXPECT_EQ(Par.NonSerializable, Seq.NonSerializable) << C.Name;
    EXPECT_EQ(Par.InvariantViolations, Seq.InvariantViolations) << C.Name;
    EXPECT_TRUE(Par.clean()) << C.Name << ": " << Par.FirstFailure;
  }
}

TEST(Explorer, ReportAbsorbSumsEveryCounter) {
  // The pool sums its workers' reports with absorb.  Distinct values, so a
  // counter summed into the wrong field, or not at all, shows.
  uint64_t ExplorerReport::*Counters[] = {
      &ExplorerReport::ConfigsVisited,   &ExplorerReport::TerminalConfigs,
      &ExplorerReport::RuleApplications, &ExplorerReport::RejectedAttempts,
      &ExplorerReport::NonSerializable,  &ExplorerReport::InvariantViolations,
      &ExplorerReport::FiringsPruned,    &ExplorerReport::PersistentCuts,
      &ExplorerReport::SymmetryHits,     &ExplorerReport::OracleSkips};
  ExplorerReport R;
  uint64_t V = 1;
  for (uint64_t ExplorerReport::*C : Counters)
    R.*C = V++;

  ExplorerReport Total;
  Total.absorb(R);
  EXPECT_FALSE(Total.Truncated);
  EXPECT_EQ(Total.FirstFailure, "");

  R.Truncated = true;
  R.FirstFailure = "first";
  Total.absorb(R);
  V = 1;
  for (uint64_t ExplorerReport::*C : Counters)
    EXPECT_EQ(Total.*C, 2 * V++);
  EXPECT_TRUE(Total.Truncated);
  EXPECT_EQ(Total.FirstFailure, "first");

  // Or-ed, not overwritten; the first non-empty failure is kept.
  R.Truncated = false;
  R.FirstFailure = "second";
  Total.absorb(R);
  EXPECT_TRUE(Total.Truncated);
  EXPECT_EQ(Total.FirstFailure, "first");
}

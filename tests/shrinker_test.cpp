//===- tests/shrinker_test.cpp - Delta-debugging the differential harness -----===//
//
// End-to-end proof that the harness catches and minimizes a planted bug:
// disable one Figure 5 commit-safety criterion ("PUSH criterion (ii)" —
// pushed effects must serialize after the effects they depend on), find a
// case the three-way check flags, and delta-debug it down to a
// two-thread, few-op reproducer whose scenario text round-trips.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Shrinker.h"

#include "fuzz/Generator.h"
#include "fuzz/Mutator.h"

#include <gtest/gtest.h>

using namespace pushpull;

namespace {

constexpr const char *InjectedBug = "PUSH criterion (ii)";

/// The pessimistic commit-phase clinic: thread 0 holds uncommitted pushed
/// reads of register 0 while thread 1 pushes write(2) then write(0) —
/// with criterion (ii) disabled the second push is wrongly admitted.
FuzzCase unpushClinic() {
  FuzzCase C;
  C.Specs = {
      {"register", {{"name", "register"}, {"regs", "3"}, {"vals", "2"}}}};
  C.Engine = "pessimistic";
  C.EngineOpts["seed"] = "1";
  C.Policy = SchedulePolicy::RoundRobin;
  C.ScheduleSeed = 1;
  auto Read = [](Value R, const char *Var) {
    return call("register", "read", {R}, Var);
  };
  auto Write = [](Value R, Value V) {
    return call("register", "write", {R, V});
  };
  C.Threads = {
      {tx(seqAll({Read(0, "a"), Read(1, "b"), Read(1, "c")}))},
      {tx(seq(Write(2, 1), Write(0, 1)))},
  };
  return C;
}

/// A case that fails under the injected bug: the clinic if it does, else
/// the first failing generated pessimistic/register case.  The fallback
/// keeps the test about the *shrinker* rather than about one schedule.
FuzzCase failingSeedCase(const DiffRunner &Runner) {
  FuzzCase Clinic = unpushClinic();
  if (Runner.run(Clinic).discrepancy())
    return Clinic;
  GeneratorConfig GC;
  GC.Seed = 1;
  GC.Engines = {"pessimistic", "htm", "early-release"};
  GC.SpecKinds = {"register"};
  Generator G(GC);
  for (int I = 0; I < 80; ++I) {
    FuzzCase C = G.next();
    if (Runner.run(C).discrepancy())
      return C;
  }
  ADD_FAILURE() << "no case failed under the injected bug";
  return Clinic;
}

} // namespace

TEST(Shrinker, MinimizesAnInjectedCriterionBug) {
  DiffConfig D;
  D.DisabledCriterion = InjectedBug;
  DiffRunner Buggy(D);

  FuzzCase Seed = failingSeedCase(Buggy);
  ShrinkOutcome S = Shrinker(Buggy).shrink(Seed);
  ASSERT_TRUE(S.Reproduced);
  EXPECT_GT(S.RunsUsed, 1u);

  // Converged to a minimal counterexample: at most two threads and a
  // handful of operations, still flagged by the differential check.
  EXPECT_LE(S.Minimized.Threads.size(), 2u);
  EXPECT_LE(S.Minimized.totalOps(), 4u);
  EXPECT_TRUE(S.FinalReport.discrepancy()) << S.FinalReport.toString();

  // 1-minimality at the granularity the passes work at: no single thread
  // can be dropped without losing the failure.
  for (size_t T = 0; T < S.Minimized.Threads.size(); ++T) {
    if (S.Minimized.Threads.size() <= 1)
      break;
    FuzzCase Cand = S.Minimized;
    Cand.Threads.erase(Cand.Threads.begin() + T);
    normalizeThreadRefs(Cand);
    EXPECT_FALSE(Buggy.run(Cand).discrepancy())
        << "thread " << T << " was droppable";
  }

  // The written reproducer is faithful: its scenario text re-parses and
  // still fails under the injection...
  ScenarioParseResult PR = parseScenario(S.Minimized.toScenarioText());
  ASSERT_TRUE(PR.ok()) << PR.Error << "\n" << S.Minimized.toScenarioText();
  DiffReport Replayed = Buggy.run(*PR.Parsed);
  ASSERT_TRUE(Replayed.Built) << Replayed.BuildError;
  EXPECT_TRUE(Replayed.discrepancy()) << Replayed.toString();

  // ...and passes clean without it — the failure is the planted bug, not
  // an artifact of the minimized program.
  DiffReport Clean = DiffRunner().run(*PR.Parsed);
  ASSERT_TRUE(Clean.Built) << Clean.BuildError;
  EXPECT_FALSE(Clean.discrepancy()) << Clean.toString();
}

TEST(Shrinker, LeavesAPassingCaseAlone) {
  DiffRunner Clean;
  FuzzCase C = unpushClinic();
  ASSERT_FALSE(Clean.run(C).discrepancy());

  ShrinkOutcome S = Shrinker(Clean).shrink(C);
  EXPECT_FALSE(S.Reproduced);
  EXPECT_EQ(S.RunsUsed, 1u) << "a passing case costs exactly one probe run";
  EXPECT_EQ(S.Minimized.Threads.size(), C.Threads.size());
  EXPECT_EQ(S.Minimized.totalOps(), C.totalOps());
}

TEST(Shrinker, RespectsItsRunBudget) {
  DiffConfig D;
  D.DisabledCriterion = InjectedBug;
  DiffRunner Buggy(D);

  ShrinkConfig SC;
  SC.MaxRuns = 3;
  ShrinkOutcome S = Shrinker(Buggy, SC).shrink(failingSeedCase(Buggy));
  EXPECT_LE(S.RunsUsed, 3u);
  // Even a budget-starved shrink reports a genuine failure.
  EXPECT_TRUE(S.Reproduced);
  EXPECT_TRUE(S.FinalReport.discrepancy());
}

//===- tests/sim_test.cpp - Scheduler / Workload / Stats ----------------------===//

#include "sim/Scheduler.h"
#include "sim/Stats.h"
#include "sim/Workload.h"

#include "check/Serializability.h"
#include "lang/Parser.h"
#include "lang/StepFin.h"
#include "spec/MapSpec.h"
#include "spec/RegisterSpec.h"
#include "tm/OptimisticTM.h"

#include <gtest/gtest.h>

#include <set>

using namespace pushpull;

TEST(Stats, Derived) {
  RunStats St;
  EXPECT_EQ(St.committedOpsPerStep(), 0.0);
  EXPECT_EQ(St.abortRatio(), 0.0);
  St.SchedulerSteps = 10;
  St.CommittedOps = 5;
  St.Commits = 3;
  St.Aborts = 1;
  EXPECT_DOUBLE_EQ(St.committedOpsPerStep(), 0.5);
  EXPECT_DOUBLE_EQ(St.abortRatio(), 0.25);
}

TEST(Stats, AbsorbTraceFillsHistogram) {
  RuleTrace T;
  for (RuleKind K : {RuleKind::App, RuleKind::App, RuleKind::Push,
                     RuleKind::Commit}) {
    TraceEvent E;
    E.Rule = K;
    T.record(E);
  }
  RunStats St;
  St.absorbTrace(T);
  EXPECT_EQ(St.ruleCount(RuleKind::App), 2u);
  EXPECT_EQ(St.ruleCount(RuleKind::Push), 1u);
  EXPECT_EQ(St.ruleCount(RuleKind::Commit), 1u);
  EXPECT_EQ(St.ruleCount(RuleKind::UnPull), 0u);
  std::string S = St.toString();
  EXPECT_NE(S.find("APP=2"), std::string::npos);
}

TEST(Stats, CacheAbsorbSumsEveryCounter) {
  // Distinct values, so a counter summed into the wrong field, or not at
  // all, renders differently.
  CacheStats R;
  uint64_t *Counters[] = {
      &R.Intern.StatesInterned, &R.Intern.StateSetsInterned,
      &R.Intern.OpKeysInterned, &R.Intern.TransitionMemoHits,
      &R.Intern.TransitionMemoMisses, &R.MoverMemoHits, &R.MoverMemoMisses,
      &R.PrecongruencePairs, &R.ReachableSets, &R.ExplorerFiringsPruned,
      &R.ExplorerPersistentCuts, &R.ExplorerSymmetryHits, &R.CommutTableHits,
      &R.CommutTableMisses, &R.CertChecks, &R.ProvedPrograms, &R.OracleSkips,
      &R.Memory.MachineCopies, &R.Memory.ChunkShares, &R.Memory.DeepCopies,
      &R.Memory.SnapshotBytes, &R.Memory.ArenaBytes};
  uint64_t V = 1;
  for (uint64_t *C : Counters)
    *C = V++;
  CacheStats Total;
  Total.absorb(R);
  EXPECT_EQ(Total.toString(), R.toString());
  Total.absorb(R);
  for (uint64_t *C : Counters)
    *C *= 2;
  EXPECT_EQ(Total.toString(), R.toString());
}

TEST(Scheduler, StepBudgetBoundsRun) {
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  M.addThread({parseOrDie("tx { mem.write(0, 1) }")});
  OptimisticTM E(M);
  Scheduler Sched({SchedulePolicy::RandomUniform, 1, /*MaxSteps=*/2});
  RunStats St = Sched.run(E);
  EXPECT_FALSE(St.Quiescent) << "2 steps cannot finish begin+run+commit";
  EXPECT_EQ(St.SchedulerSteps, 2u);
}

TEST(Scheduler, RoundRobinIsDeterministic) {
  auto Run = [] {
    RegisterSpec Spec("mem", 2, 2);
    MoverChecker Movers(Spec);
    PushPullMachine M(Spec, Movers);
    M.addThread({parseOrDie("tx { mem.write(0, 1) }")});
    M.addThread({parseOrDie("tx { v := mem.read(1) }")});
    OptimisticTM E(M);
    Scheduler Sched({SchedulePolicy::RoundRobin, 9, 10000});
    Sched.run(E);
    return E.machine().trace().toString();
  };
  EXPECT_EQ(Run(), Run());
}

TEST(Scheduler, RandomSeedReproducible) {
  auto Run = [](uint64_t Seed) {
    RegisterSpec Spec("mem", 2, 2);
    MoverChecker Movers(Spec);
    PushPullMachine M(Spec, Movers);
    WorkloadConfig WC;
    WC.Threads = 3;
    WC.TxPerThread = 2;
    WC.Seed = 4;
    for (auto &P : genRegisterWorkload(Spec, WC))
      M.addThread(P);
    OptimisticTM E(M);
    Scheduler Sched({SchedulePolicy::RandomUniform, Seed, 100000});
    Sched.run(E);
    return E.machine().trace().toString();
  };
  EXPECT_EQ(Run(5), Run(5));
  EXPECT_NE(Run(5), Run(6)) << "different schedules should differ";
}

TEST(Workload, ShapesMatchConfig) {
  MapSpec Spec("map", 8, 4);
  WorkloadConfig WC;
  WC.Threads = 3;
  WC.TxPerThread = 4;
  WC.OpsPerTx = 5;
  WC.Seed = 10;
  ThreadPrograms P = genMapWorkload(Spec, WC);
  ASSERT_EQ(P.size(), 3u);
  for (const auto &Thread : P) {
    ASSERT_EQ(Thread.size(), 4u);
    for (const CodePtr &Tx : Thread) {
      EXPECT_EQ(Tx->kind(), CodeKind::Tx);
      EXPECT_EQ(reachableMethods(Tx).size(), 5u);
    }
  }
}

TEST(Workload, DeterministicPerSeed) {
  RegisterSpec Spec("mem", 4, 4);
  WorkloadConfig WC;
  WC.Seed = 123;
  auto A = genRegisterWorkload(Spec, WC);
  auto B = genRegisterWorkload(Spec, WC);
  ASSERT_EQ(A.size(), B.size());
  for (size_t T = 0; T < A.size(); ++T)
    for (size_t X = 0; X < A[T].size(); ++X)
      EXPECT_TRUE(codeEquals(A[T][X], B[T][X]));
}

TEST(Workload, KeysStayInDomain) {
  MapSpec Spec("map", 4, 4);
  WorkloadConfig WC;
  WC.KeyRange = 100; // Deliberately larger than the spec's domain.
  WC.Threads = 2;
  WC.TxPerThread = 3;
  WC.OpsPerTx = 4;
  WC.Seed = 5;
  for (const auto &Thread : genMapWorkload(Spec, WC))
    for (const CodePtr &Tx : Thread)
      for (const MethodExpr &ME : reachableMethods(Tx)) {
        ASSERT_FALSE(ME.Args.empty());
        Value K = std::get<Value>(ME.Args[0]);
        EXPECT_GE(K, 0);
        EXPECT_LT(K, 4);
      }
}

TEST(Workload, ZipfSkewConcentratesKeys) {
  MapSpec Spec("map", 8, 4);
  WorkloadConfig Uniform, Skewed;
  Uniform.Threads = Skewed.Threads = 4;
  Uniform.TxPerThread = Skewed.TxPerThread = 8;
  Uniform.OpsPerTx = Skewed.OpsPerTx = 4;
  Uniform.Seed = Skewed.Seed = 6;
  Skewed.ZipfTheta = 250;
  auto CountKeyZero = [&](const ThreadPrograms &P) {
    int N = 0;
    for (const auto &Thread : P)
      for (const CodePtr &Tx : Thread)
        for (const MethodExpr &ME : reachableMethods(Tx))
          if (std::get<Value>(ME.Args[0]) == 0)
            ++N;
    return N;
  };
  EXPECT_GT(CountKeyZero(genMapWorkload(Spec, Skewed)),
            CountKeyZero(genMapWorkload(Spec, Uniform)) * 2);
}

TEST(Workload, RegisterWorkloadsRunEndToEnd) {
  RegisterSpec Spec("mem", 3, 3);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  WorkloadConfig WC;
  WC.Threads = 3;
  WC.TxPerThread = 2;
  WC.OpsPerTx = 3;
  WC.KeyRange = 3;
  WC.Seed = 8;
  for (auto &P : genRegisterWorkload(Spec, WC))
    M.addThread(P);
  OptimisticTM E(M);
  Scheduler Sched({SchedulePolicy::RandomUniform, 8, 100000});
  RunStats St = Sched.run(E);
  ASSERT_TRUE(St.Quiescent);
  SerializabilityChecker Oracle(Spec);
  EXPECT_EQ(Oracle.checkCommitOrder(M).Serializable, Tri::Yes);
}

TEST(Scheduler, PriorityChangePointsSerializable) {
  for (uint64_t Seed : {1u, 2u, 3u, 4u}) {
    RegisterSpec Spec("mem", 2, 2);
    MoverChecker Movers(Spec);
    PushPullMachine M(Spec, Movers);
    WorkloadConfig WC;
    WC.Threads = 3;
    WC.TxPerThread = 2;
    WC.OpsPerTx = 2;
    WC.KeyRange = 2;
    WC.Seed = Seed;
    for (auto &P : genRegisterWorkload(Spec, WC))
      M.addThread(P);
    OptimisticTM E(M);
    SchedulerConfig SC;
    SC.Policy = SchedulePolicy::PriorityChangePoints;
    SC.Seed = Seed;
    SC.MaxSteps = 200000;
    SC.ChangePoints = 3;
    RunStats St = Scheduler(SC).run(E);
    ASSERT_TRUE(St.Quiescent) << "seed " << Seed;
    SerializabilityChecker Oracle(Spec);
    EXPECT_EQ(Oracle.checkCommitOrder(M).Serializable, Tri::Yes);
  }
}

TEST(Scheduler, PriorityScheduleDiffersFromUniform) {
  auto TraceOf = [](SchedulePolicy P) {
    RegisterSpec Spec("mem", 2, 2);
    MoverChecker Movers(Spec);
    PushPullMachine M(Spec, Movers);
    WorkloadConfig WC;
    WC.Threads = 3;
    WC.TxPerThread = 2;
    WC.Seed = 4;
    for (auto &Prog : genRegisterWorkload(Spec, WC))
      M.addThread(Prog);
    OptimisticTM E(M);
    SchedulerConfig SC;
    SC.Policy = P;
    SC.Seed = 5;
    SC.MaxSteps = 100000;
    Scheduler(SC).run(E);
    return E.machine().trace().toString();
  };
  EXPECT_NE(TraceOf(SchedulePolicy::PriorityChangePoints),
            TraceOf(SchedulePolicy::RandomUniform));
}

//===- tests/stress_test.cpp - The ppstress runtime, checked ------------------===//
//
// The stress subsystem's own battery: the SPSC rings and the sharded
// arbiter as units (including under real concurrency), the shadow
// window checker against faithful and tampered recordings, and the
// end-to-end contract of the whole runtime — a planted Figure 5
// criterion bug must be caught by the window oracle, dumped as a
// `.ppsched` reproducer, and that reproducer must replay to the
// identical failure, twice — and the merge of the per-worker checkers'
// verdicts.
//
//===----------------------------------------------------------------------===//

#include "stress/StressRunner.h"

#include "fuzz/DiffRunner.h"
#include "lang/Printer.h"
#include "sim/Scenario.h"
#include "stress/Arbiter.h"
#include "stress/RingTrace.h"
#include "tm/Engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <thread>

using namespace pushpull;

namespace {

constexpr const char *InjectedBug = "PUSH criterion (ii)";

// -- RingTrace ---------------------------------------------------------------

TEST(RingTrace, FifoOrderAndFullRejection) {
  RingTrace Ring(4);
  StressRecord R;
  EXPECT_FALSE(Ring.tryPop(R));
  for (uint64_t I = 0; I < 4; ++I) {
    R.Order = I;
    EXPECT_TRUE(Ring.tryPush(R));
  }
  R.Order = 99;
  EXPECT_FALSE(Ring.tryPush(R)) << "full ring must reject, not overwrite";
  for (uint64_t I = 0; I < 4; ++I) {
    ASSERT_TRUE(Ring.tryPop(R));
    EXPECT_EQ(R.Order, I);
  }
  EXPECT_FALSE(Ring.tryPop(R));

  // Wraparound: interleaved push/pop far past the capacity.
  for (uint64_t I = 0; I < 100; ++I) {
    R.Order = I;
    ASSERT_TRUE(Ring.tryPush(R));
    ASSERT_TRUE(Ring.tryPop(R));
    EXPECT_EQ(R.Order, I);
  }
}

TEST(RingTrace, SpscAcrossRealThreads) {
  RingTrace Ring(64);
  constexpr uint64_t N = 20000;
  std::thread Producer([&Ring] {
    StressRecord R;
    for (uint64_t I = 0; I < N; ++I) {
      R.Order = I;
      R.GSize = static_cast<uint32_t>(I * 2654435761u);
      while (!Ring.tryPush(R))
        std::this_thread::yield();
    }
  });
  uint64_t Seen = 0;
  bool Intact = true;
  while (Seen < N) {
    StressRecord R;
    if (!Ring.tryPop(R)) {
      std::this_thread::yield();
      continue;
    }
    Intact = Intact && R.Order == Seen &&
             R.GSize == static_cast<uint32_t>(Seen * 2654435761u);
    ++Seen;
  }
  Producer.join();
  EXPECT_TRUE(Intact) << "records crossed the ring reordered or torn";
  EXPECT_EQ(Ring.size(), 0u);
}

// -- CommitArbiter -----------------------------------------------------------

TEST(CommitArbiter, ConcurrentSequencesAreUniqueAndTotal) {
  constexpr unsigned Threads = 4;
  constexpr uint64_t PerThread = 2000;
  CommitArbiter Arbiter(3, 16);
  std::vector<std::vector<uint64_t>> Seqs(Threads);
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&Arbiter, &Seqs, T] {
      for (uint64_t I = 0; I < PerThread; ++I)
        Seqs[T].push_back(Arbiter.admitCommit(T * 7919 + I));
    });
  for (auto &T : Ts)
    T.join();

  std::set<uint64_t> All;
  for (const auto &S : Seqs) {
    // Per admitter, sequence numbers arrive strictly increasing.
    EXPECT_TRUE(std::is_sorted(S.begin(), S.end()));
    All.insert(S.begin(), S.end());
  }
  EXPECT_EQ(All.size(), Threads * PerThread) << "duplicate sequence issued";
  EXPECT_EQ(*All.rbegin(), Threads * PerThread) << "sequence has gaps";
  EXPECT_EQ(Arbiter.commits(), Threads * PerThread);
  EXPECT_EQ(Arbiter.epoch(), Threads * PerThread / 16);
  EXPECT_TRUE(Arbiter.monotonic());
}

// -- Round configuration determinism -----------------------------------------

StressConfig smallConfig(const std::string &Engine, const std::string &Spec) {
  StressConfig C;
  C.Engine = Engine;
  C.SpecKind = Spec;
  C.SpecOpts["name"] = Spec;
  C.Workers = 2;
  C.ThreadsPerWorker = 2;
  C.TxPerThread = 3;
  C.OpsPerTx = 3;
  C.Rounds = 2;
  C.WindowCommits = 4;
  C.Seed = 1;
  return C;
}

std::string renderPrograms(const WindowCheckConfig &RC) {
  std::string Out;
  for (const auto &Txs : RC.Threads)
    for (const CodePtr &Tx : Txs)
      Out += printCode(Tx) + "\n";
  return Out;
}

TEST(StressRunner, RoundConfigIsAPureFunctionOfSeedWorkerRound) {
  StressConfig C = smallConfig("boosting", "counter");
  std::string Error, Name;
  auto Spec = makeSpecPart("counter", C.SpecOpts, Name, Error);
  ASSERT_TRUE(Spec) << Error;

  WindowCheckConfig A = buildRoundConfig(C, Spec, 1, 3, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  WindowCheckConfig B = buildRoundConfig(C, Spec, 1, 3, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(A.EngineOpts.at("seed"), B.EngineOpts.at("seed"));
  EXPECT_EQ(renderPrograms(A), renderPrograms(B));

  // Different (worker, round) means a different workload stream.
  WindowCheckConfig Other = buildRoundConfig(C, Spec, 0, 0, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  EXPECT_NE(renderPrograms(A), renderPrograms(Other));
}

// -- WindowChecker -----------------------------------------------------------

/// Drive one round inline, exactly as a worker does, feeding the checker
/// \p Tamper-ed records.  Returns the checker's failure ("" = clean).
std::string shadowOneRound(
    const std::function<void(StressRecord &, uint64_t)> &Tamper) {
  StressConfig C = smallConfig("optimistic", "counter");
  std::string Error, Name;
  auto Spec = makeSpecPart("counter", C.SpecOpts, Name, Error);
  EXPECT_TRUE(Spec) << Error;
  WindowCheckConfig RC = buildRoundConfig(C, Spec, 0, 0, Error);
  EXPECT_TRUE(Error.empty()) << Error;

  WindowChecker Checker(RC, Error);
  EXPECT_TRUE(Checker.ok()) << Error;

  // The live side, inline: same spec, same programs, same engine seed.
  MoverChecker Movers(*Spec, RC.Movers, RC.Pre);
  MachineConfig MC;
  MC.RecordTrace = false;
  PushPullMachine M(*Spec, Movers, MC);
  for (const auto &P : RC.Threads)
    M.addThread(P);
  std::unique_ptr<TMEngine> E = makeEngine(RC.Engine, RC.EngineOpts, M, Error);
  EXPECT_TRUE(E) << Error;

  Rng PickRng(7);
  uint64_t Order = 0;
  while (Order < 10000) {
    std::vector<TxId> Runnable;
    for (const ThreadState &Th : M.threads())
      if (!Th.done())
        Runnable.push_back(Th.Tid);
    if (Runnable.empty())
      break;
    TxId Pick = Runnable[PickRng.below(Runnable.size())];
    StepStatus St = E->step(Pick);
    StressRecord R;
    R.Order = Order;
    stampFingerprint(R, M, static_cast<uint32_t>(Pick), St);
    Tamper(R, Order);
    ++Order;
    if (!Checker.feed(R))
      break;
  }
  Checker.closeWindow();
  return Checker.failure();
}

TEST(WindowChecker, AcceptsAFaithfulRecording) {
  EXPECT_EQ(shadowOneRound([](StressRecord &, uint64_t) {}), "");
}

TEST(WindowChecker, FlagsATamperedFingerprint) {
  // Corrupt one fingerprint field of one record mid-stream: whichever
  // field it is, the shadow replay must notice at exactly that step.
  struct Field {
    const char *Name;
    void (*Tamper)(StressRecord &);
  };
  const Field Fields[] = {
      {"Status", [](StressRecord &R) { R.Status = R.Status == 0 ? 1 : 0; }},
      {"LSize", [](StressRecord &R) { R.LSize += 1; }},
      {"GSize", [](StressRecord &R) { R.GSize += 1; }},
      {"Commits", [](StressRecord &R) { R.Commits += 1; }},
  };
  for (const Field &F : Fields) {
    std::string Failure = shadowOneRound([&F](StressRecord &R, uint64_t Order) {
      if (Order == 5)
        F.Tamper(R);
    });
    EXPECT_NE(Failure.find("diverged at step 5"), std::string::npos)
        << F.Name << ": " << Failure;
  }
}

// -- End to end: fault injection, dump, deterministic replay -----------------

StressOutcome runInjected(uint64_t Seed) {
  StressConfig C = smallConfig("pessimistic", "register");
  C.Rounds = 4;
  C.Seed = Seed;
  C.DisabledCriterion = InjectedBug;
  return StressRunner(C).run();
}

TEST(StressRunner, InjectedCriterionBugIsCaughtByTheWindowOracle) {
  StressOutcome O;
  // The pick streams are seed-deterministic, so some seed in this small
  // range reliably drives the two logical threads into the bad
  // interleaving; iterating keeps the test about detection, not about
  // one schedule.
  for (uint64_t Seed = 1; Seed <= 4 && O.Failures.empty(); ++Seed)
    O = runInjected(Seed);
  ASSERT_FALSE(O.Failures.empty())
      << "planted " << InjectedBug << " was never detected";
  EXPECT_FALSE(O.ok());
  EXPECT_GE(O.Stats.WindowFailures, 1u);
  bool OracleConvicted = false;
  for (const std::string &F : O.Failures)
    OracleConvicted =
        OracleConvicted || F.find("atomic oracle") != std::string::npos;
  EXPECT_TRUE(OracleConvicted) << O.Failures.front();
  ASSERT_FALSE(O.Dumps.empty()) << "failing window produced no reproducer";
  EXPECT_NE(O.Dumps.front().find("schedule replay picks="),
            std::string::npos);
  EXPECT_NE(O.Dumps.front().find(std::string("inject ") + InjectedBug),
            std::string::npos);
}

TEST(StressRunner, DumpedScheduleReplaysToTheIdenticalFailureTwice) {
  StressOutcome O;
  for (uint64_t Seed = 1; Seed <= 4 && O.Dumps.empty(); ++Seed)
    O = runInjected(Seed);
  ASSERT_FALSE(O.Dumps.empty());

  ScenarioParseResult PR = parseScenario(O.Dumps.front());
  ASSERT_TRUE(PR.ok()) << PR.Error;
  EXPECT_EQ(PR.Parsed->Policy, SchedulePolicy::Replay);
  EXPECT_FALSE(PR.Parsed->ReplayPicks.empty());
  EXPECT_EQ(PR.Parsed->DisabledCriterion, InjectedBug);

  BuiltCase Case = *PR.Parsed;
  DiffReport First = DiffRunner().run(Case);
  ASSERT_TRUE(First.Built) << First.BuildError;
  EXPECT_TRUE(First.discrepancy())
      << "reproducer did not reproduce:\n" << First.toString();

  // Byte-identical adjudication on a second replay: the `.ppsched` pins
  // the run completely (engine seed + pick sequence).  Only the semantic
  // part is compared — the trailing cache counters report the process-
  // global interning tables, which the first replay warms.
  DiffReport Second = DiffRunner().run(Case);
  auto Semantic = [](const std::string &S) {
    return S.substr(0, S.find("  states interned:"));
  };
  EXPECT_EQ(Semantic(First.toString()), Semantic(Second.toString()));
  EXPECT_EQ(First.Stats.SchedulerSteps, Second.Stats.SchedulerSteps);
  EXPECT_TRUE(Second.discrepancy());
}

/// The worker a failure line names ("worker W ..." or "checker worker
/// W: ..."), or -1.
int failingWorker(const std::string &F) {
  unsigned W = 0;
  size_t At = F.rfind("worker ", 8);
  if (At == std::string::npos ||
      std::sscanf(F.c_str() + At, "worker %u", &W) != 1)
    return -1;
  return static_cast<int>(W);
}

TEST(StressRunner, MergedCheckerResultsFollowWorkerOrder) {
  namespace fs = std::filesystem;
  std::string Dir =
      (fs::temp_directory_path() / "ppstress-merge-XXXXXX").string();
  ASSERT_NE(mkdtemp(Dir.data()), nullptr);

  // Four workers, each with its own checker; some seed in this small
  // range makes at least two of them convict their rounds.
  StressOutcome O;
  std::set<int> Failed;
  for (uint64_t Seed = 1; Seed <= 8 && Failed.size() < 2; ++Seed) {
    for (const fs::directory_entry &E : fs::directory_iterator(Dir))
      fs::remove(E.path());
    StressConfig C = smallConfig("pessimistic", "register");
    C.Workers = 4;
    C.Rounds = 4;
    C.Seed = Seed;
    C.DisabledCriterion = InjectedBug;
    C.MaxDumps = 1;
    C.DumpDir = Dir;
    O = StressRunner(C).run();
    Failed.clear();
    for (const std::string &F : O.Failures)
      Failed.insert(failingWorker(F));
  }
  ASSERT_GE(Failed.size(), 2u) << "fewer than two workers were convicted";

  std::vector<int> Order;
  for (const std::string &F : O.Failures)
    Order.push_back(failingWorker(F));
  EXPECT_TRUE(std::is_sorted(Order.begin(), Order.end()))
      << "failures are not in worker order, first: " << O.Failures.front();

  // MaxDumps = 1: one reproducer, the first failure's, kept and written.
  ASSERT_EQ(O.Dumps.size(), 1u);
  ASSERT_EQ(O.DumpFiles.size(), 1u);
  size_t Files = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    (void)E;
    ++Files;
  }
  EXPECT_EQ(Files, 1u);
  EXPECT_EQ(fs::path(O.DumpFiles[0]).parent_path(), fs::path(Dir));
  EXPECT_EQ(fs::path(O.DumpFiles[0]).filename().string().rfind(
                "ppstress-w" + std::to_string(Order.front()) + "-r", 0),
            0u)
      << O.DumpFiles[0];
  std::ifstream In(O.DumpFiles[0]);
  std::stringstream Written;
  Written << In.rdbuf();
  EXPECT_EQ(Written.str(), O.Dumps[0]);

  // The kept dump replays to the discrepancy its checker reported.
  ScenarioParseResult PR = parseScenario(O.Dumps[0]);
  ASSERT_TRUE(PR.ok()) << PR.Error;
  DiffReport R = DiffRunner().run(*PR.Parsed);
  ASSERT_TRUE(R.Built) << R.BuildError;
  EXPECT_TRUE(R.discrepancy()) << R.toString();
  if (O.Failures.front().find("atomic oracle") != std::string::npos)
    EXPECT_EQ(R.Serializable, Tri::No) << R.toString();
  else if (O.Failures.front().find("opacity") != std::string::npos)
    EXPECT_TRUE(R.OpacityViolated) << R.toString();

  fs::remove_all(Dir);
}

TEST(StressRunner, CleanRunStaysCleanWithoutInjection) {
  StressConfig C = smallConfig("pessimistic", "register");
  C.Rounds = 3;
  StressOutcome O = StressRunner(C).run();
  EXPECT_TRUE(O.ok()) << O.Failures.front();
  EXPECT_GT(O.Stats.Commits, 0u);
  EXPECT_GE(O.Stats.Windows, 1u);
  EXPECT_EQ(O.Stats.WindowFailures, 0u);
}

TEST(StressRunner, AllTenEnginesSurviveAWindowCheckedRun) {
  for (const std::string &Engine : allEngineNames()) {
    StressConfig C = smallConfig(Engine, "counter");
    C.Rounds = 1;
    StressOutcome O = StressRunner(C).run();
    EXPECT_TRUE(O.ok()) << Engine << ": " << O.Failures.front();
    EXPECT_GT(O.Stats.Commits, 0u) << Engine;
  }
}

} // namespace

//===- stress/StressRunner.cpp - Real-concurrency stress runtime -------------===//

#include "stress/StressRunner.h"

#include "sim/Workload.h"
#include "stress/Arbiter.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <thread>

using namespace pushpull;

namespace {

/// splitmix64-style mixer: (Seed, worker, round) -> independent stream.
uint64_t mixSeed(uint64_t A, uint64_t B, uint64_t C) {
  uint64_t X = A * 0x9e3779b97f4a7c15ull + B * 0xbf58476d1ce4e5b9ull +
               C * 0x94d049bb133111ebull + 0x2545f4914f6cdd1dull;
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X ? X : 1;
}

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// One worker's channel to its checker: the ring and the worker's
/// termination flag.
struct Lane {
  RingTrace Ring;
  std::atomic<bool> WorkerDone{false};

  explicit Lane(size_t Capacity) : Ring(Capacity) {}
};

/// Everything the worker and checker threads share.  Semantic state is
/// thread-confined; this is lanes + arbiter only.
struct SharedState {
  const StressConfig &C;
  std::shared_ptr<const SequentialSpec> Spec;
  CommitArbiter Arbiter;
  std::vector<std::unique_ptr<Lane>> Lanes;
  /// Worker-side build errors (mutex-guarded; rare).
  std::mutex ErrorLock;
  std::vector<std::string> BuildErrors;

  SharedState(const StressConfig &C,
              std::shared_ptr<const SequentialSpec> Spec)
      : C(C), Spec(std::move(Spec)),
        Arbiter(C.Stripes, C.WindowCommits) {
    for (unsigned W = 0; W < C.Workers; ++W)
      Lanes.push_back(std::make_unique<Lane>(C.RingCapacity));
  }
};

/// What one worker's checker found: window counters, failures in the
/// order found, and the reproducers of its first failing rounds.
struct CheckerResult {
  StressStats Stats;
  std::vector<std::string> Failures;
  struct Dump {
    uint32_t Round;
    std::string Text;
  };
  std::vector<Dump> Dumps;
};

} // namespace

WindowCheckConfig
pushpull::buildRoundConfig(const StressConfig &C,
                           std::shared_ptr<const SequentialSpec> Spec,
                           unsigned Worker, uint32_t Round,
                           std::string &Error) {
  WindowCheckConfig RC;
  RC.Specs.push_back({C.SpecKind, C.SpecOpts});
  RC.Spec = std::move(Spec);
  RC.Engine = C.Engine;
  RC.EngineOpts = C.EngineOpts;
  RC.DisabledCriterion = C.DisabledCriterion;

  // Per-round engine seed: live worker and shadow checker derive the
  // identical value from the same three numbers, which is what makes the
  // shadow replay exact.
  uint64_t RoundSeed = mixSeed(C.Seed, Worker + 1, Round + 1);
  RC.EngineOpts["seed"] = std::to_string(RoundSeed % 100000);

  WorkloadConfig WC;
  WC.Threads = C.ThreadsPerWorker < 2 ? 2 : C.ThreadsPerWorker;
  WC.TxPerThread = C.TxPerThread;
  WC.OpsPerTx = C.OpsPerTx;
  WC.KeyRange = C.KeyRange;
  WC.ZipfTheta = C.ZipfTheta;
  WC.ReadPct = C.ReadPct;
  WC.Seed = mixSeed(RoundSeed, 0x5eed, 0x10ad);

  RC.Threads = genWorkload(RC.Spec.get(), WC);
  if (RC.Threads.empty())
    Error = "no workload mix for spec kind '" + C.SpecKind + "'";
  return RC;
}

/// One worker: rounds of fresh machine + engine + workload, every step
/// recorded into the worker's ring.
static StressStats workerLoop(SharedState &S, unsigned W) {
  StressStats L;
  Rng PickRng(mixSeed(S.C.Seed, W + 1, 0xfeedu));
  auto Start = std::chrono::steady_clock::now();

  for (uint32_t Round = 0;; ++Round) {
    if (S.C.DurationMs ? secondsSince(Start) * 1000.0 >=
                             static_cast<double>(S.C.DurationMs)
                       : Round >= S.C.Rounds)
      break;

    std::string Error;
    WindowCheckConfig RC = buildRoundConfig(S.C, S.Spec, W, Round, Error);
    if (!Error.empty()) {
      std::lock_guard<std::mutex> G(S.ErrorLock);
      S.BuildErrors.push_back("worker " + std::to_string(W) + ": " + Error);
      break;
    }

    // Built like the shadow that replays it (WindowChecker), from the same
    // scenario.
    MachineConfig MC;
    MC.RecordTrace = false; // The shadow records; the hot path doesn't.
    EngineRun Run(RC, std::move(MC));
    TMEngine *E = Run.engine();
    if (!E) {
      std::lock_guard<std::mutex> G(S.ErrorLock);
      S.BuildErrors.push_back("worker " + std::to_string(W) + ": " +
                              Run.error());
      break;
    }
    const PushPullMachine &M = Run.machine();

    uint64_t Order = 0;
    std::vector<TxId> Runnable;
    while (Order < S.C.MaxStepsPerRound) {
      Runnable.clear();
      for (const ThreadState &Th : M.threads())
        if (!Th.done())
          Runnable.push_back(Th.Tid);
      if (Runnable.empty())
        break;
      TxId Pick = Runnable[PickRng.below(Runnable.size())];
      StepStatus St = E->step(Pick);
      ++L.Steps;

      StressRecord R;
      R.Order = Order++;
      R.Round = Round;
      if (St == StepStatus::Committed) {
        ++L.Commits;
        // The cross-worker commit point: stripe by (worker, thread) so
        // distinct workers mostly hit distinct stripes while the global
        // sequence stays total.
        R.CommitSeq = S.Arbiter.admitCommit(W * 131u + Pick);
      } else if (St == StepStatus::Aborted) {
        ++L.Aborts;
      }
      R.Epoch = S.Arbiter.epoch();
      stampFingerprint(R, M, static_cast<uint32_t>(Pick), St);
      if (S.C.CheckWindows) {
        while (!S.Lanes[W]->Ring.tryPush(R)) {
          ++L.RingSpins;
          std::this_thread::yield();
        }
        ++L.RingRecords;
      }
      if (St == StepStatus::Committed && S.C.ThinkUs)
        std::this_thread::sleep_for(std::chrono::microseconds(S.C.ThinkUs));
    }
    L.Transactions += M.committed().size();
  }
  S.Lanes[W]->WorkerDone.store(true, std::memory_order_release);
  return L;
}

/// One worker's checker: drains that worker's ring, shadow-replays each
/// of its rounds through a WindowChecker, and closes windows at epoch
/// changes and round ends.
static CheckerResult checkerLoop(SharedState &S, unsigned W) {
  CheckerResult Out;
  Lane &L = *S.Lanes[W];
  std::unique_ptr<WindowChecker> Chk;
  uint32_t Round = 0;
  uint64_t LastCommitSeq = 0;

  auto harvest = [&] {
    if (!Chk)
      return;
    Chk->closeWindow();
    Out.Stats.absorb(Chk->stats());
    if (!Chk->failure().empty()) {
      Out.Failures.push_back("worker " + std::to_string(W) + " round " +
                             std::to_string(Round) + ": " + Chk->failure());
      // The merged outcome keeps the first MaxDumps in worker order, so
      // no worker can contribute more than that.
      if (Out.Dumps.size() < S.C.MaxDumps)
        Out.Dumps.push_back({Round, Chk->dumpSchedule()});
    }
    Chk.reset();
  };

  for (;;) {
    StressRecord R;
    if (!L.Ring.tryPop(R)) {
      // The worker publishes its last record before its flag, so a set
      // flag and an empty ring mean the stream has ended.
      if (L.WorkerDone.load(std::memory_order_acquire) && L.Ring.size() == 0)
        break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    if (!Chk || R.Round != Round) {
      harvest();
      std::string Err;
      WindowCheckConfig RC = buildRoundConfig(S.C, S.Spec, W, R.Round, Err);
      Round = R.Round;
      if (Err.empty())
        Chk = std::make_unique<WindowChecker>(std::move(RC), Err);
      if (!Err.empty()) {
        Out.Failures.push_back("checker worker " + std::to_string(W) + ": " +
                               Err);
        Chk.reset();
      }
    }
    // Arbiter contract, observed from the consumer side: one worker's
    // commit sequence numbers arrive strictly increasing (rings are FIFO,
    // workers commit in program order).
    if (R.CommitSeq) {
      if (R.CommitSeq <= LastCommitSeq)
        Out.Failures.push_back("worker " + std::to_string(W) +
                               ": arbiter sequence regressed (" +
                               std::to_string(R.CommitSeq) + " after " +
                               std::to_string(LastCommitSeq) + ")");
      LastCommitSeq = R.CommitSeq;
    }
    if (Chk)
      Chk->feed(R);
  }
  harvest();
  return Out;
}

StressOutcome StressRunner::run() {
  StressOutcome Outcome;
  Outcome.Stats.Workers = Config.Workers;
  if (Config.Workers == 0)
    return Outcome;
  if (Config.SpecOpts.find("name") == Config.SpecOpts.end())
    Config.SpecOpts["name"] = Config.SpecKind;

  std::string Error, SpecName;
  std::shared_ptr<const SequentialSpec> Spec =
      makeSpecPart(Config.SpecKind, Config.SpecOpts, SpecName, Error);
  if (!Spec) {
    Outcome.Failures.push_back("spec: " + Error);
    return Outcome;
  }

  SharedState S(Config, Spec);
  std::vector<StressStats> WorkerStats(Config.Workers);
  std::vector<CheckerResult> Checks(Config.CheckWindows ? Config.Workers : 0);
  auto T0 = std::chrono::steady_clock::now();

  // One checker per worker, each owning that worker's ring, shadow
  // machines and verdicts, so checking scales with the workers instead
  // of serializing behind one thread.
  std::vector<std::thread> Workers, Checkers;
  Workers.reserve(Config.Workers);
  Checkers.reserve(Checks.size());
  for (unsigned W = 0; W < Config.Workers; ++W)
    Workers.emplace_back(
        [&S, &WorkerStats, W] { WorkerStats[W] = workerLoop(S, W); });
  for (unsigned W = 0; W < Checks.size(); ++W)
    Checkers.emplace_back([&S, &Checks, W] { Checks[W] = checkerLoop(S, W); });

  for (std::thread &T : Workers)
    T.join();
  Outcome.Stats.WorkersSec = secondsSince(T0);
  for (std::thread &T : Checkers)
    T.join();
  Outcome.Stats.ElapsedSec = secondsSince(T0);

  for (const StressStats &WS : WorkerStats)
    Outcome.Stats.absorb(WS);
  // Merge in worker order, so failures and the kept reproducers do not
  // depend on which checker finished first.
  for (unsigned W = 0; W < Checks.size(); ++W) {
    CheckerResult &R = Checks[W];
    Outcome.Stats.absorb(R.Stats);
    Outcome.Failures.insert(Outcome.Failures.end(), R.Failures.begin(),
                            R.Failures.end());
    for (CheckerResult::Dump &D : R.Dumps) {
      if (Outcome.Dumps.size() >= Config.MaxDumps)
        break;
      if (!Config.DumpDir.empty()) {
        std::string Path = Config.DumpDir + "/ppstress-w" +
                           std::to_string(W) + "-r" +
                           std::to_string(D.Round) + ".ppsched";
        std::ofstream Out(Path);
        if (Out) {
          Out << D.Text;
          Outcome.DumpFiles.push_back(Path);
        }
      }
      Outcome.Dumps.push_back(std::move(D.Text));
    }
  }
  for (const std::string &E : S.BuildErrors)
    Outcome.Failures.push_back(E);
  if (!S.Arbiter.monotonic())
    Outcome.Failures.push_back(
        "arbiter: per-stripe sequence monotonicity violated");
  return Outcome;
}

//===- perfbench/src/stress.cpp - The stress workload ----------------------===//
//
// StressRunner with zero think time and window checking on: 2 workers plus
// the checker thread, each of the ten engines in turn on the counter spec
// (the CI sweep's spec), a fixed number of rounds per worker per engine.  A
// pass is one run of every engine.  Fixed work rather than fixed time, so a
// faster engine finishes sooner and every pass checks the same windows.
//
// Why: this is the only workload with real threads, where the shared
// StateTable, the CommitArbiter, the RingTrace rings and the WindowChecker
// shadow replay contend.  Engine step cost and aborts set the throughput
// here, not sleep.  Skipped modules: sim/Explorer, sim/Reduction,
// sim/Scheduler, fuzz/, analysis/, core/Commut.
//
// Seeded: --seed is StressConfig::Seed of the first pass (later passes
// derive theirs from it).
//
// The traced run re-drives one StressRunner::run from its public pieces
// (buildRoundConfig, makeEngine, TMEngine::step, admitCommit, tryPush,
// WindowChecker::feed/closeWindow) in the order the runner drives them.
//
//===----------------------------------------------------------------------===//

#include "harness.h"

#include "sim/Scenario.h"
#include "stress/Arbiter.h"
#include "stress/StressRunner.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <thread>

using namespace pushpull;

namespace perfbench {

namespace {

constexpr unsigned Workers = 2;
constexpr unsigned RoundsPerWorker = 40;

StressConfig engineConfig(const std::string &Engine, uint64_t Seed) {
  StressConfig C;
  C.SpecKind = "counter";
  C.SpecOpts["name"] = "counter";
  C.Engine = Engine;
  C.Workers = Workers;
  C.Rounds = RoundsPerWorker;
  C.ThinkUs = 0;
  C.CheckWindows = true;
  C.Seed = Seed;
  return C;
}

uint64_t passSeed(uint64_t Seed, size_t Pass) {
  return Seed * 1000003u + Pass;
}

/// StressRunner's (Seed, worker, round) stream mixer, reproduced so the
/// re-driven workers pick the same threads the runner's workers pick.
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

/// Set-up: the spec, and one round configuration and engine per engine.
void setUp(uint64_t Seed, Result &R) {
  for (const std::string &E : allEngineNames()) {
    StressConfig C = engineConfig(E, Seed);
    std::string Name, Error;
    std::shared_ptr<const SequentialSpec> Spec =
        makeSpecPart(C.SpecKind, C.SpecOpts, Name, Error);
    if (!Spec) {
      R.check(false, "spec: " + Error);
      return;
    }
    WindowCheckConfig RC = buildRoundConfig(C, Spec, 0, 0, Error);
    MoverChecker Movers(*Spec);
    PushPullMachine M(*Spec, Movers);
    for (const auto &P : RC.Threads)
      M.addThread(P);
    R.check(Error.empty() && makeEngine(E, RC.EngineOpts, M, Error),
            "engine " + E + ": " + Error);
  }
}

struct EngineTotals {
  uint64_t Commits = 0;
  double Seconds = 0;
};

/// One pass of StressRunner over every engine; returns its seconds and adds
/// its checked commits to \p Commits.
double runPass(uint64_t Seed, Result &R, std::vector<EngineTotals> &PerEngine,
               uint64_t &Commits) {
  double PassS = 0;
  const std::vector<std::string> &Engines = allEngineNames();
  for (size_t I = 0; I < Engines.size(); ++I) {
    StressOutcome O = StressRunner(engineConfig(Engines[I], Seed)).run();
    const StressStats &S = O.Stats;
    R.UnitMs.push_back(S.ElapsedSec * 1e3);
    PassS += S.ElapsedSec;
    Commits += S.Commits;
    PerEngine[I].Commits += S.Commits;
    PerEngine[I].Seconds += S.ElapsedSec;
    R.check(O.ok() && S.WindowFailures == 0 && S.Windows > 0 && S.Commits > 0,
            Engines[I] + ": " +
                (O.Failures.empty() ? "no windows checked" : O.Failures[0]));
  }
  return PassS;
}

/// Counters of the re-driven runs.
struct Traced {
  Traced() : EngineSteps(allEngineNames().size()) {}
  std::vector<CallStat> EngineSteps;
  CallStat Admit, Push, Feed;
  std::atomic<uint64_t> Spins{0}, Records{0}, Commits{0}, Aborts{0};
  std::atomic<uint64_t> MoverHits{0}, MoverMisses{0}, Reachable{0},
      PrePairs{0};
  std::mutex Lock;
  StressStats Checks;   // Guarded by Lock.
  InternStats Intern;   // Guarded by Lock.
  uint64_t Succ = 0, SuccNs = 0, Hints = 0; // Guarded by Lock.
};

/// StressRunner::run for one engine, re-driven with spans.
double redriveEngine(const StressConfig &C, size_t EngineIdx, Traced &T,
                     Result &R) {
  std::string Name, Error;
  std::shared_ptr<const SequentialSpec> Real =
      makeSpecPart(C.SpecKind, C.SpecOpts, Name, Error);
  if (!Real) {
    R.check(false, "spec: " + Error);
    return 0;
  }
  auto Spec = std::make_shared<TracedSpec>(Real);
  CommitArbiter Arbiter(C.Stripes, C.WindowCommits);
  std::vector<std::unique_ptr<RingTrace>> Rings;
  for (unsigned W = 0; W < C.Workers; ++W)
    Rings.push_back(std::make_unique<RingTrace>(C.RingCapacity));
  std::atomic<unsigned> WorkersDone{0};
  std::mutex FailLock;
  std::vector<std::string> Failures; // Guarded by FailLock.
  auto fail = [&](const std::string &Why) {
    std::lock_guard<std::mutex> G(FailLock);
    Failures.push_back(Why);
  };
  uint64_t T0 = nowNs();

  auto worker = [&](unsigned W) {
    {
      Span Root(Site::Root);
      Rng PickRng(mixSeed(C.Seed, W + 1, 0xfeedu));
      for (uint32_t Round = 0; Round < C.Rounds; ++Round) {
        WindowCheckConfig RC;
        std::string Err;
        {
          Span Sp(Site::RoundConfig);
          RC = buildRoundConfig(C, Real, W, Round, Err);
        }
        if (!Err.empty()) {
          fail(Err);
          break;
        }
        std::unique_ptr<MoverChecker> Movers;
        std::unique_ptr<PushPullMachine> M;
        std::unique_ptr<TMEngine> E;
        {
          Span Sp(Site::MakeEngine);
          Movers = std::make_unique<MoverChecker>(*Spec, RC.Movers, RC.Pre);
          MachineConfig MC;
          MC.DisabledCriterion = RC.DisabledCriterion;
          MC.RecordTrace = false;
          MC.RecordAudit = false;
          M = std::make_unique<PushPullMachine>(*Spec, *Movers, MC);
          for (const auto &P : RC.Threads)
            M->addThread(P);
          E = makeEngine(RC.Engine, RC.EngineOpts, *M, Err);
        }
        if (!E) {
          fail(Err);
          break;
        }
        uint64_t Order = 0;
        std::vector<TxId> Runnable;
        while (Order < C.MaxStepsPerRound) {
          Runnable.clear();
          for (const ThreadState &Th : M->threads())
            if (!Th.done())
              Runnable.push_back(Th.Tid);
          if (Runnable.empty())
            break;
          TxId Pick = Runnable[PickRng.below(Runnable.size())];
          StepStatus St;
          {
            Span Sp(Site::EngineStep, &T.EngineSteps[EngineIdx]);
            St = E->step(Pick);
          }
          StressRecord Rec;
          Rec.Order = Order++;
          Rec.Round = Round;
          if (St == StepStatus::Committed) {
            T.Commits.fetch_add(1, std::memory_order_relaxed);
            Span Sp(Site::Admit, &T.Admit);
            Rec.CommitSeq = Arbiter.admitCommit(W * 131u + Pick);
          } else if (St == StepStatus::Aborted) {
            T.Aborts.fetch_add(1, std::memory_order_relaxed);
          }
          Rec.Epoch = Arbiter.epoch();
          stampFingerprint(Rec, *M, static_cast<uint32_t>(Pick), St);
          {
            Span Sp(Site::RingPush, &T.Push);
            while (!Rings[W]->tryPush(Rec)) {
              T.Spins.fetch_add(1, std::memory_order_relaxed);
              std::this_thread::yield();
            }
          }
          T.Records.fetch_add(1, std::memory_order_relaxed);
        }
        T.MoverHits += Movers->memoHits();
        T.MoverMisses += Movers->memoMisses();
        T.Reachable += Movers->reachableComputedCount();
        T.PrePairs += Movers->precongruence().pairsVisited();
      }
    }
    flushThread();
    WorkersDone.fetch_add(1, std::memory_order_acq_rel);
  };

  StressStats CheckStats;
  auto checker = [&] {
    {
      Span Root(Site::Root);
      struct PerWorker {
        std::unique_ptr<WindowChecker> Chk;
        uint32_t Round = 0;
        uint64_t LastCommitSeq = 0;
      };
      std::vector<PerWorker> St(C.Workers);
      auto harvest = [&](unsigned W) {
        PerWorker &P = St[W];
        if (!P.Chk)
          return;
        P.Chk->closeWindow();
        CheckStats.absorb(P.Chk->stats());
        if (!P.Chk->failure().empty())
          fail("worker " + std::to_string(W) + ": " + P.Chk->failure());
        P.Chk.reset();
      };
      for (;;) {
        bool Progress = false;
        for (unsigned W = 0; W < C.Workers; ++W) {
          StressRecord Rec;
          for (;;) {
            bool Popped;
            {
              Span Sp(Site::RingPop);
              Popped = Rings[W]->tryPop(Rec);
            }
            if (!Popped)
              break;
            Progress = true;
            PerWorker &P = St[W];
            if (!P.Chk || Rec.Round != P.Round) {
              Span Sp(Site::WindowClose);
              harvest(W);
              std::string Err;
              WindowCheckConfig RC;
              {
                Span Sp2(Site::RoundConfig);
                RC = buildRoundConfig(C, Real, W, Rec.Round, Err);
              }
              RC.Spec = Spec;
              P.Round = Rec.Round;
              if (Err.empty())
                P.Chk = std::make_unique<WindowChecker>(std::move(RC), Err);
              if (!Err.empty()) {
                fail("checker: " + Err);
                P.Chk.reset();
              }
            }
            if (Rec.CommitSeq) {
              if (Rec.CommitSeq <= P.LastCommitSeq)
                fail("arbiter sequence regressed");
              P.LastCommitSeq = Rec.CommitSeq;
            }
            if (P.Chk) {
              Span Sp(Site::WindowFeed, &T.Feed);
              P.Chk->feed(Rec);
            }
          }
        }
        if (!Progress) {
          if (WorkersDone.load(std::memory_order_acquire) == C.Workers) {
            bool Empty = true;
            for (auto &Ring : Rings)
              Empty = Empty && Ring->size() == 0;
            if (Empty)
              break;
          }
          Span Sp(Site::Wait);
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
      Span Sp(Site::WindowClose);
      for (unsigned W = 0; W < C.Workers; ++W)
        harvest(W);
    }
    flushThread();
  };

  std::vector<std::thread> Threads;
  for (unsigned W = 0; W < C.Workers; ++W)
    Threads.emplace_back(worker, W);
  std::thread Checker(checker);
  for (std::thread &Th : Threads)
    Th.join();
  Checker.join();
  double Elapsed = secondsSince(T0);

  if (!Arbiter.monotonic())
    fail("arbiter: per-stripe sequence monotonicity violated");
  R.check(Failures.empty() && CheckStats.WindowFailures == 0 &&
              CheckStats.Windows > 0,
          C.Engine + " (traced): " +
              (Failures.empty() ? "no windows checked" : Failures[0]));
  std::lock_guard<std::mutex> G(T.Lock);
  T.Checks.absorb(CheckStats);
  InternStats I = Spec->internStats();
  T.Intern.TransitionMemoHits += I.TransitionMemoHits;
  T.Intern.TransitionMemoMisses += I.TransitionMemoMisses;
  T.Intern.StatesInterned += I.StatesInterned;
  T.Intern.StateSetsInterned += I.StateSetsInterned;
  T.Succ += Spec->Successors.Calls.load();
  T.SuccNs += Spec->Successors.Ns.load();
  T.Hints += Spec->Hints.Calls.load();
  return Elapsed;
}

} // namespace

Result runStress(const Options &Opt) {
  Result R;
  std::vector<EngineTotals> PerEngine(allEngineNames().size());

  if (!Opt.Trace) {
    timeSetUp(R, [&] { setUp(Opt.Seed, R); });
    uint64_t Start = nowNs();
    while (R.PassS.empty() || secondsSince(Start) < Opt.Seconds) {
      uint64_t Commits = 0;
      double S =
          runPass(passSeed(Opt.Seed, R.PassS.size()), R, PerEngine, Commits);
      R.addPass(S, static_cast<double>(Commits));
      timeSetUp(R, [&] { setUp(Opt.Seed, R); });
    }
    return R;
  }

  // Traced run: StressRunner passes, then the same passes re-driven with
  // spans on.
  setUp(Opt.Seed, R);
  std::vector<double> Untraced, TracedPasses;
  uint64_t Start = nowNs(), Commits = 0;
  while (Untraced.empty() || secondsSince(Start) < Opt.Seconds / 2)
    Untraced.push_back(runPass(passSeed(Opt.Seed, Untraced.size()), R,
                               PerEngine, Commits));

  Traced T;
  memstats::Snapshot Mem0 = memstats::read();
  resetCollected();
  setTracing(true);
  Start = nowNs();
  const std::vector<std::string> &Engines = allEngineNames();
  while (TracedPasses.empty() || secondsSince(Start) < Opt.Seconds / 2) {
    double PassS = 0;
    for (size_t I = 0; I < Engines.size(); ++I)
      PassS += redriveEngine(
          engineConfig(Engines[I], passSeed(Opt.Seed, TracedPasses.size())),
          I, T, R);
    TracedPasses.push_back(PassS);
  }
  setTracing(false);
  memstats::Snapshot Mem = memstats::read().delta(Mem0);
  SiteTotals Tot = collected();

  auto &L = R.Layer;
  double Passes = static_cast<double>(TracedPasses.size());
  L["arena.bytes"] = static_cast<double>(Mem.ArenaBytes) / Passes;
  L["arbiter.admit_ns"] = T.Admit.meanNs();
  L["ring.push_ns"] = T.Push.meanNs();
  L["ring.spins_per_record"] = ratio(static_cast<double>(T.Spins.load()),
                                     static_cast<double>(T.Records.load()));
  L["window.feed_ns"] = T.Feed.meanNs();
  L["window.check_us_mean"] = T.Checks.meanWindowCheckUs();
  L["window.check_us_max"] =
      static_cast<double>(T.Checks.MaxWindowCheckNs) * 1e-3;
  L["window.count"] = static_cast<double>(T.Checks.Windows) / Passes;
  L["tm.commit_ratio"] =
      ratio(static_cast<double>(T.Commits.load()),
            static_cast<double>(T.Commits.load() + T.Aborts.load()));
  for (size_t I = 0; I < Engines.size(); ++I) {
    L["tm." + Engines[I] + ".step_ns"] = T.EngineSteps[I].meanNs();
    L["tm." + Engines[I] + ".commits_per_s"] =
        ratio(static_cast<double>(PerEngine[I].Commits), PerEngine[I].Seconds);
  }
  L["spec.transition_hit_rate"] =
      ratio(static_cast<double>(T.Intern.TransitionMemoHits),
            static_cast<double>(T.Intern.TransitionMemoHits +
                                T.Intern.TransitionMemoMisses));
  L["spec.states"] = static_cast<double>(T.Intern.StatesInterned) / Passes;
  L["spec.sets"] = static_cast<double>(T.Intern.StateSetsInterned) / Passes;
  L["spec.successor_calls"] = static_cast<double>(T.Succ) / Passes;
  L["spec.successor_ns"] =
      ratio(static_cast<double>(T.SuccNs), static_cast<double>(T.Succ));
  double MH = static_cast<double>(T.MoverHits.load()),
         MM = static_cast<double>(T.MoverMisses.load());
  L["mover.memo_hit_rate"] = ratio(MH, MH + MM);
  L["mover.semantic_calls"] = (MH + MM) / Passes;
  L["mover.hint_calls"] = static_cast<double>(T.Hints) / Passes;
  L["mover.reachable_sets"] = static_cast<double>(T.Reachable.load()) / Passes;
  L["precongruence.pairs"] = static_cast<double>(T.PrePairs.load()) / Passes;
  addTraceMetrics(R, Tot, Untraced, TracedPasses);
  return R;
}

} // namespace perfbench

//===- perfbench/src/fuzz.cpp - The fuzz workload --------------------------===//
//
// A fixed-seed differential campaign over all ten engines x seven spec
// kinds: the Campaign's own generate-or-mutate loop (Generator, Mutator,
// the same reservoir policy) feeding DiffRunner with its defaults —
// invariants re-checked after every rule and one oracle replay per case.
// Each case is timed on its own, so the case latency percentiles are exact.
// The Campaign's directed seed corpus (its rare-rule clinics) runs once
// before the timed passes, through Campaign itself, so full rule coverage
// never depends on random-draw luck.
//
// Why: every case builds a fresh spec and MoverChecker, so this workload
// measures cold criterion evaluation, the scheduler and engine steps,
// invariant checks and the oracle.  It never touches configKey or the
// explorer's visited map.  Skipped modules: sim/Explorer, sim/Reduction,
// stress/, analysis/, core/Commut.
//
// Seeded: --seed seeds the directed corpus and the generator of every batch
// (held-out second seed for claims: see perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "harness.h"

#include "check/Serializability.h"
#include "core/Invariants.h"
#include "fuzz/Campaign.h"
#include "sim/Scenario.h"
#include "sim/Scheduler.h"
#include "spec/RegisterSpec.h"

#include <algorithm>
#include <memory>

using namespace pushpull;

namespace perfbench {

namespace {

/// Cases per pass: two periods of the generator's engine x kind grid.
constexpr unsigned BatchCases = 140;
/// Passes per batch.  Pass P runs batch P / Repeats: each batch runs back
/// to back on four CPUs (nextCpu), and its fastest run counts (harness.h).
/// Repeats spread over the run would need many more of them to meet a fast
/// CPU, and every repeat is a distinct case less: with fewer distinct cases
/// the seed's share of livelocking cases moves the figures.
constexpr size_t Repeats = 4;
/// Size of Campaign's directed seed corpus (one conflict clinic per engine
/// plus the pessimistic and boosting clinics).
constexpr uint64_t DirectedCases = 12;
/// Scheduler step budget of each case.  The generator's default is 30000,
/// but 99.9% of the cases that reach quiescence do so within 300 steps,
/// while the 2-3% that livelock under a random schedule spin to the budget.
/// Their share of the time was over 90% at 30000 steps and 63% at 1000,
/// which made the throughput a count of livelocks and the seed's luck; at
/// 300 it is under half.  They stay in the stream, inconclusive and counted
/// in sched.inconclusive_frac.
constexpr uint64_t StepBudget = 300;
/// Campaign's default mutation rate and reservoir size.
constexpr unsigned MutantPct = 30;
constexpr size_t CorpusCap = 32;

/// The Campaign's case stream (directed corpus excluded).  A batch starts a
/// fresh stream, with an empty mutation reservoir: mutants of a livelocking
/// case tend to livelock too, so a reservoir kept for a whole run lets one
/// unlucky case set the run's throughput; per batch, the clusters average
/// out.
class CaseStream {
public:
  explicit CaseStream(uint64_t Seed)
      : Gen(genConfig(Seed)), R(Seed ^ 0x9e3779b97f4a7c15ull) {}

  /// Batch \p Batch of the run seeded \p Seed.
  static CaseStream forBatch(uint64_t Seed, size_t Batch) {
    return CaseStream(Seed * 1000003u + Batch);
  }

  static GeneratorConfig genConfig(uint64_t Seed) {
    GeneratorConfig G;
    G.Seed = Seed;
    return G;
  }

  FuzzCase next() {
    bool Mutate = !Corpus.empty() && R.chance(MutantPct, 100);
    FuzzCase Case =
        Mutate ? Mut.mutate(Corpus[R.below(Corpus.size())], R) : Gen.next();
    if (!Mutate) {
      if (Corpus.size() < CorpusCap)
        Corpus.push_back(Case);
      else
        Corpus[R.below(Corpus.size())] = Case;
    }
    Case.MaxSteps = StepBudget;
    return Case;
  }

private:
  Generator Gen;
  Mutator Mut;
  Rng R;
  std::vector<FuzzCase> Corpus;
};

size_t engineIndex(const std::string &Name) {
  const std::vector<std::string> &All = allEngineNames();
  return static_cast<size_t>(std::find(All.begin(), All.end(), Name) -
                             All.begin());
}

/// DiffRunner::run(const FuzzCase &) re-driven from its public pieces, in
/// the same order, with spans around each and the traced decorators
/// substituted for the spec and the engine.
DiffReport redriveCase(const FuzzCase &Case, const DiffConfig &Config,
                       std::vector<CallStat> &EngineSteps,
                       std::shared_ptr<TracedSpec> &SpecOut) {
  DiffReport Report;
  BuiltCase B;
  std::string Error;
  {
    Span Sp(Site::BuildCase);
    B = buildCase(Case, Error);
  }
  if (!B.Spec) {
    Report.BuildError = Error;
    return Report;
  }
  auto Spec = std::make_shared<TracedSpec>(B.Spec);
  SpecOut = Spec;
  MoverChecker Movers(*Spec, Config.Movers, Config.Pre);
  MachineConfig MC;
  MC.DisabledCriterion = Config.DisabledCriterion.empty()
                             ? B.DisabledCriterion
                             : Config.DisabledCriterion;
  if (Config.CheckInvariantsEachRule) {
    MC.OnRuleApplied = [&Report, &Config](const PushPullMachine &FM,
                                          RuleKind, TxId) {
      if (Report.InvariantViolated ||
          Report.RulesInvariantChecked >= Config.MaxInvariantCheckedRules)
        return;
      ++Report.RulesInvariantChecked;
      Span Sp(Site::Invariants);
      for (const ThreadState &Th : FM.threads()) {
        InvariantReport R = checkAllInvariants(Th, FM.global(), FM.movers());
        if (!R.Holds) {
          Report.InvariantViolated = true;
          Report.InvariantDetail = R.Which + ": " + R.Detail;
          return;
        }
      }
    };
  }
  std::unique_ptr<PushPullMachine> M;
  std::unique_ptr<TMEngine> Engine;
  {
    Span Sp(Site::MakeEngine);
    M = std::make_unique<PushPullMachine>(*Spec, Movers, MC);
    for (const auto &P : B.Threads)
      M->addThread(P);
    Engine = makeEngine(B.Engine, B.EngineOpts, *M, Error);
  }
  if (!Engine) {
    Report.BuildError = Error;
    return Report;
  }
  Report.Built = true;
  TracedEngine Timed(std::move(Engine), EngineSteps[engineIndex(B.Engine)]);
  SchedulerConfig SC;
  SC.Policy = B.Policy;
  SC.Seed = B.ScheduleSeed;
  SC.MaxSteps = B.MaxSteps;
  SC.ChangePoints = B.ChangePoints;
  SC.ReplayPicks = B.ReplayPicks;
  {
    Span Sp(Site::SchedRun);
    Report.Stats = Scheduler(SC).run(Timed);
  }
  {
    Span Sp(Site::Oracle);
    SerializabilityChecker Oracle(*Spec, Config.Atomic, Config.Pre);
    SerializabilityVerdict V = Oracle.checkCommitOrder(*M);
    Report.Serializable = V.Serializable;
    Report.SerializabilityDetail = V.Detail;
    Report.OutcomesTried = V.OutcomesTried;
  }
  {
    Span Sp(Site::Opacity);
    Report.Opacity = classifyTrace(M->trace());
  }
  Report.OpacityViolated = engineExpectedOpaque(B.Engine) &&
                           !Report.Opacity.InOpaqueFragment;
  Report.Caches.Intern = Spec->internStats();
  Report.Caches.MoverMemoHits = Movers.memoHits();
  Report.Caches.MoverMemoMisses = Movers.memoMisses();
  Report.Caches.PrecongruencePairs = Movers.precongruence().pairsVisited();
  Report.Caches.ReachableSets = Movers.reachableComputedCount();
  return Report;
}

/// Fold one case into the campaign-style coverage report and check it.  A
/// case fails only on a discrepancy or a build error, the campaign's own
/// criterion (CampaignReport::ok): a livelocked case that exhausts its step
/// budget is inconclusive, which random schedules produce for a few percent
/// of cases on every engine; it is counted, not failed.
void account(const FuzzCase &Case, const DiffReport &D, CampaignReport &Cov,
             Result &R) {
  EngineCoverage &E = Cov.PerEngine[Case.Engine];
  ++E.Runs;
  ++Cov.RunsDone;
  if (D.Built) {
    E.Commits += D.Stats.Commits;
    E.Aborts += D.Stats.Aborts;
    for (int K = 0; K < 7; ++K)
      E.RuleCounts[K] += D.Stats.RuleCounts[K];
    Cov.NotQuiescent += !D.Stats.Quiescent;
  }
  Cov.Inconclusive += D.inconclusive();
  R.check(D.Built && !D.discrepancy(),
          "case " + std::to_string(Cov.RunsDone) + " engine " + Case.Engine +
              ": " + (D.Built ? "discrepancy" : "build error " + D.BuildError));
}

/// Set-up: one build of every spec kind and engine (a bad name fails before
/// timing starts), and Campaign's directed corpus, whose report seeds \p Cov.
void setUp(uint64_t Seed, CampaignReport &Cov, Result &R) {
  for (const std::string &Kind : allSpecKinds()) {
    std::string Name, Error;
    R.check(makeSpecPart(Kind, {{"name", Kind}}, Name, Error) != nullptr,
            "spec kind " + Kind + ": " + Error);
  }
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  for (const std::string &E : allEngineNames()) {
    PushPullMachine M(Spec, Movers);
    M.addThread({call("mem", "read", {Value(0)})});
    std::string Error;
    R.check(makeEngine(E, {}, M, Error) != nullptr, "engine " + E + ": " + Error);
  }
  CampaignConfig CC;
  CC.Gen.Seed = Seed;
  CC.Runs = DirectedCases;
  CC.ShrinkFailures = false;
  Cov = Campaign(CC).run();
  R.check(Cov.Discrepancies == 0 && Cov.Inconclusive == 0,
          "directed corpus: " + std::to_string(Cov.Discrepancies) +
              " discrepancies, " + std::to_string(Cov.Inconclusive) +
              " inconclusive");
}

void checkCoverage(const CampaignReport &Cov, Result &R) {
  std::vector<std::string> Missing = Cov.uncoveredRules();
  R.check(Missing.empty() && Cov.PerEngine.size() == allEngineNames().size(),
          "rule coverage: " + (Missing.empty() ? std::string("engines missing")
                                               : Missing.front()));
}

} // namespace

Result runFuzz(const Options &Opt) {
  Result R;
  DiffRunner Runner;
  CampaignReport Cov;

  if (!Opt.Trace) {
    timeSetUp(R, [&] { setUp(Opt.Seed, Cov, R); });
    uint64_t Start = nowNs();
    // The last batch runs all its repeats too.
    while (R.PassS.empty() || R.PassS.size() % Repeats ||
           secondsSince(Start) < Opt.Seconds) {
      nextCpu();
      double PassS = 0;
      size_t Batch = R.PassS.size() / Repeats;
      CaseStream Stream = CaseStream::forBatch(Opt.Seed, Batch);
      for (unsigned I = 0; I < BatchCases; ++I) {
        uint64_t T0 = nowNs();
        FuzzCase Case = Stream.next();
        uint64_t T1 = nowNs();
        DiffReport D = Runner.run(Case);
        uint64_t T2 = nowNs();
        R.UnitMs.push_back(static_cast<double>(T2 - T1) * 1e-6);
        PassS += static_cast<double>(T2 - T0) * 1e-9;
        account(Case, D, Cov, R);
      }
      R.addPass(PassS, BatchCases, Batch);
      CampaignReport Unused;
      timeSetUp(R, [&] { setUp(Opt.Seed, Unused, R); });
    }
    checkCoverage(Cov, R);
    return R;
  }

  // Traced run.  Pass k of each half runs the same batch.
  std::vector<CallStat> EngineSteps(allEngineNames().size());
  std::vector<double> Untraced, TracedPasses;
  {
    // The re-drive must reproduce DiffRunner exactly; check it on the first
    // cases of the stream (tracing is off, nothing here is timed).
    CaseStream Check(Opt.Seed);
    for (unsigned I = 0; I < 2 * BatchCases; ++I) {
      FuzzCase Case = Check.next();
      DiffReport D = Runner.run(Case);
      std::shared_ptr<TracedSpec> Spec;
      DiffReport E = redriveCase(Case, Runner.config(), EngineSteps, Spec);
      R.check(E.Stats.SchedulerSteps == D.Stats.SchedulerSteps &&
                  E.Stats.Commits == D.Stats.Commits &&
                  E.Stats.Aborts == D.Stats.Aborts &&
                  E.Stats.Quiescent == D.Stats.Quiescent &&
                  E.Serializable == D.Serializable &&
                  E.OutcomesTried == D.OutcomesTried &&
                  E.RulesInvariantChecked == D.RulesInvariantChecked,
              "re-driven DiffRunner diverged on case " + std::to_string(I));
    }
  }
  {
    setUp(Opt.Seed, Cov, R);
    uint64_t Start = nowNs();
    while (Untraced.empty() || secondsSince(Start) < Opt.Seconds / 2) {
      uint64_t T0 = nowNs();
      CaseStream Stream = CaseStream::forBatch(Opt.Seed, Untraced.size());
      for (unsigned I = 0; I < BatchCases; ++I) {
        FuzzCase Case = Stream.next();
        account(Case, Runner.run(Case), Cov, R);
      }
      Untraced.push_back(secondsSince(T0));
    }
  }

  for (CallStat &S : EngineSteps)
    S.Calls = 0, S.Ns = 0;
  CampaignReport TracedCov;
  setUp(Opt.Seed, TracedCov, R);
  uint64_t Cases = 0, Steps = 0, Blocked = 0, Commits = 0, Aborts = 0,
           Outcomes = 0, InvRules = 0;
  uint64_t TransHits = 0, TransMisses = 0, States = 0, Sets = 0, Succ = 0,
           SuccNs = 0, Hints = 0;
  uint64_t MoverHits = 0, MoverMisses = 0, Reachable = 0, PrePairs = 0;
  memstats::Snapshot Mem;
  resetCollected();
  setTracing(true);
  uint64_t Start = nowNs();
  {
    Span Root(Site::Root);
    while (TracedPasses.empty() || secondsSince(Start) < Opt.Seconds / 2) {
      uint64_t T0 = nowNs();
      memstats::Snapshot M0 = memstats::read();
      CaseStream Stream = CaseStream::forBatch(Opt.Seed, TracedPasses.size());
      for (unsigned I = 0; I < BatchCases; ++I) {
        FuzzCase Case;
        {
          Span Sp(Site::Generate);
          Case = Stream.next();
        }
        std::shared_ptr<TracedSpec> Spec;
        DiffReport D =
            redriveCase(Case, Runner.config(), EngineSteps, Spec);
        account(Case, D, Cov, R);
        ++Cases;
        Steps += D.Stats.SchedulerSteps;
        Blocked += D.Stats.BlockedSteps;
        Commits += D.Stats.Commits;
        Aborts += D.Stats.Aborts;
        Outcomes += D.OutcomesTried;
        InvRules += D.RulesInvariantChecked;
        TransHits += D.Caches.Intern.TransitionMemoHits;
        TransMisses += D.Caches.Intern.TransitionMemoMisses;
        States += D.Caches.Intern.StatesInterned;
        Sets += D.Caches.Intern.StateSetsInterned;
        MoverHits += D.Caches.MoverMemoHits;
        MoverMisses += D.Caches.MoverMemoMisses;
        Reachable += D.Caches.ReachableSets;
        PrePairs += D.Caches.PrecongruencePairs;
        if (Spec) {
          Succ += Spec->Successors.Calls.load();
          SuccNs += Spec->Successors.Ns.load();
          Hints += Spec->Hints.Calls.load();
        }
      }
      Mem = memstats::read().delta(M0);
      TracedPasses.push_back(secondsSince(T0));
    }
  }
  flushThread();
  setTracing(false);
  SiteTotals T = collected();
  checkCoverage(Cov, R);

  auto &L = R.Layer;
  double N = static_cast<double>(Cases);
  auto perCase = [N](uint64_t V) { return static_cast<double>(V) / N; };
  L["gen.us_per_case"] = usPerCall(T, Site::Generate);
  L["sched.steps_per_case"] = perCase(Steps);
  L["sched.inconclusive_frac"] =
      ratio(static_cast<double>(Cov.Inconclusive),
            static_cast<double>(Cov.RunsDone));
  L["sched.blocked_frac"] =
      ratio(static_cast<double>(Blocked), static_cast<double>(Steps));
  L["tm.commit_ratio"] = ratio(static_cast<double>(Commits),
                               static_cast<double>(Commits + Aborts));
  L["oracle.calls"] = perCase(T.calls(Site::Oracle));
  L["oracle.us_per_call"] = usPerCall(T, Site::Oracle);
  L["oracle.outcomes_per_call"] =
      ratio(static_cast<double>(Outcomes),
            static_cast<double>(T.calls(Site::Oracle)));
  L["opacity.us_per_case"] = usPerCall(T, Site::Opacity);
  L["invariants.rules_checked"] = perCase(InvRules);
  L["invariants.us_per_rule"] = usPerCall(T, Site::Invariants);
  L["arena.bytes"] = static_cast<double>(Mem.ArenaBytes);
  L["spec.transition_hit_rate"] =
      ratio(static_cast<double>(TransHits),
            static_cast<double>(TransHits + TransMisses));
  L["spec.states"] = perCase(States);
  L["spec.sets"] = perCase(Sets);
  L["spec.successor_calls"] = perCase(Succ);
  L["spec.successor_ns"] =
      ratio(static_cast<double>(SuccNs), static_cast<double>(Succ));
  L["mover.memo_hit_rate"] = ratio(static_cast<double>(MoverHits),
                                   static_cast<double>(MoverHits + MoverMisses));
  L["mover.semantic_calls"] = perCase(MoverHits + MoverMisses);
  L["mover.hint_calls"] = perCase(Hints);
  L["mover.reachable_sets"] = perCase(Reachable);
  L["precongruence.pairs"] = perCase(PrePairs);
  for (size_t I = 0; I < EngineSteps.size(); ++I)
    L["tm." + allEngineNames()[I] + ".step_ns"] = EngineSteps[I].meanNs();
  addTraceMetrics(R, T, Untraced, TracedPasses);
  return R;
}

} // namespace perfbench

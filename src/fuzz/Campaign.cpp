//===- fuzz/Campaign.cpp - Differential fuzzing campaigns -------------------===//

#include "fuzz/Campaign.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>

using namespace pushpull;

namespace {

/// A high-contention map case: two threads writing two keys in opposite
/// orders plus a reading third thread.  Under the fixed schedule seeds
/// below this provokes conflict aborts — and with them the inverse rules
/// (UNAPP/UNPUSH/UNPULL) — in every abort-based engine.
FuzzCase conflictClinic(const std::string &Engine) {
  FuzzCase C;
  C.Specs = {{"map", {{"name", "map"}, {"keys", "2"}, {"vals", "2"}}}};
  C.Engine = Engine;
  C.EngineOpts["seed"] = "1";
  if (Engine == "boosting") {
    C.EngineOpts["keylocks"] = "1";
    C.EngineOpts["deadlock"] = "3";
  }
  if (Engine == "checkpoint")
    C.EngineOpts["every"] = "1";
  C.Policy = SchedulePolicy::RandomUniform;
  // Schedule seed 2 drives every abort-based engine through its whole
  // expected rule set; the checkpoint engine's UNPULL (a full-abort after
  // the committed-snapshot pull, reached only when partial rewinds
  // escalate) needs seed 7.
  C.ScheduleSeed = Engine == "checkpoint" ? 7 : 2;
  auto Put = [](Value K, Value V) {
    return call("map", "put", {K, V});
  };
  auto Get = [](Value K, const char *Var) {
    return call("map", "get", {K}, Var);
  };
  C.Threads = {
      {tx(seq(Put(0, 1), Put(1, 1))), tx(Get(0, "a"))},
      {tx(seq(Put(1, 1), Put(0, 1))), tx(Get(1, "b"))},
      {tx(seq(Get(0, "c"), Put(0, 0)))},
  };
  return C;
}

/// The pessimistic engine's only inverse rule is the commit-phase UNPUSH:
/// an all-or-nothing push sequence rolls itself back when a later push is
/// rejected by a live uncommitted reader.  Under round-robin, thread 1
/// pushes write(2) (no reader), then write(0) is rejected by thread 0's
/// still-uncommitted pushed read of register 0 — rolling back write(2).
FuzzCase pessimisticUnpushClinic() {
  FuzzCase C;
  C.Specs = {{"register", {{"name", "register"}, {"regs", "3"}, {"vals", "2"}}}};
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

/// Boosting's classic deadlock: opposite lock orders on key-granular
/// locks, low deadlock threshold — one thread aborts via inverse
/// operations (UNPUSH) and local rewind (UNAPP).
FuzzCase boostingDeadlockClinic() {
  FuzzCase C;
  C.Specs = {{"map", {{"name", "map"}, {"keys", "4"}, {"vals", "2"}}}};
  C.Engine = "boosting";
  C.EngineOpts = {{"seed", "1"}, {"keylocks", "1"}, {"deadlock", "3"}};
  C.Policy = SchedulePolicy::RoundRobin;
  C.ScheduleSeed = 1;
  auto Put = [](Value K, Value V) {
    return call("map", "put", {K, V});
  };
  C.Threads = {
      {tx(seq(Put(0, 1), Put(1, 1)))},
      {tx(seq(Put(1, 1), Put(0, 1)))},
  };
  return C;
}

/// The deterministic seed corpus run before random generation: one
/// conflict clinic per campaign engine plus the engine-specific rare-rule
/// clinics.  Guarantees the campaign's expected-rule assertion is about
/// the engines, not about random-draw luck.
std::vector<FuzzCase> directedCases(const std::vector<std::string> &Engines) {
  std::vector<FuzzCase> Out;
  for (const std::string &E : Engines) {
    Out.push_back(conflictClinic(E));
    if (E == "pessimistic")
      Out.push_back(pessimisticUnpushClinic());
    if (E == "boosting")
      Out.push_back(boostingDeadlockClinic());
  }
  return Out;
}

} // namespace

uint32_t EngineCoverage::observedMask() const {
  uint32_t Mask = 0;
  for (int K = 0; K < 7; ++K)
    if (RuleCounts[K])
      Mask |= 1u << K;
  return Mask;
}

std::vector<std::string> CampaignReport::uncoveredRules() const {
  std::vector<std::string> Out;
  for (const auto &[Engine, Cov] : PerEngine) {
    uint32_t Missing = expectedRuleMask(Engine) & ~Cov.observedMask();
    if (!Missing)
      continue;
    std::string Line = Engine + ":";
    for (int K = 0; K < 7; ++K)
      if (Missing & (1u << K))
        Line += " " + pushpull::toString(static_cast<RuleKind>(K));
    Out.push_back(std::move(Line));
  }
  return Out;
}

std::string CampaignReport::toString() const {
  std::string Out = "campaign: " + std::to_string(RunsDone) + " runs, " +
                    std::to_string(Discrepancies) + " discrepancies, " +
                    std::to_string(Inconclusive) + " inconclusive, " +
                    std::to_string(NotQuiescent) + " hit the step budget\n";
  Out += "per-engine rule coverage:\n";
  for (const auto &[Engine, Cov] : PerEngine) {
    Out += "  " + Engine + " (" + std::to_string(Cov.Runs) + " runs, " +
           std::to_string(Cov.Commits) + " commits, " +
           std::to_string(Cov.Aborts) + " aborts):";
    for (int K = 0; K < 7; ++K)
      Out += " " + pushpull::toString(static_cast<RuleKind>(K)) + "=" +
             std::to_string(Cov.RuleCounts[K]);
    Out += "\n";
  }
  if (BuildErrors)
    Out += "BUILD ERRORS: " + std::to_string(BuildErrors) +
           " case(s) could not be built; first: " + FirstBuildError + "\n";
  for (const std::string &Line : uncoveredRules())
    Out += "UNEXERCISED expected rules — " + Line + "\n";
  for (size_t I = 0; I < FailureReports.size(); ++I) {
    Out += "discrepancy #" + std::to_string(I + 1) + ":\n" +
           FailureReports[I];
    if (I < ReproFiles.size() && !ReproFiles[I].empty())
      Out += "  reproducer: " + ReproFiles[I] + "\n  replay: " +
             ReplayCommands[I] + "\n";
  }
  Out += "cache totals:\n" + Caches.toString();
  Out += ok() ? "RESULT: OK\n" : "RESULT: FAIL\n";
  return Out;
}

Campaign::Campaign(CampaignConfig C)
    : Config(std::move(C)), Gen(Config.Gen), Mut(Config.Mut),
      Runner(Config.Diff), R(Config.Gen.Seed ^ 0x9e3779b97f4a7c15ull) {}

void Campaign::runCase(const FuzzCase &Case, CampaignReport &Report) {
  DiffReport D = Runner.run(Case);
  ++Report.RunsDone;

  EngineCoverage &Cov = Report.PerEngine[Case.Engine];
  ++Cov.Runs;
  if (D.Built) {
    Cov.Commits += D.Stats.Commits;
    Cov.Aborts += D.Stats.Aborts;
    for (int K = 0; K < 7; ++K)
      Cov.RuleCounts[K] += D.Stats.RuleCounts[K];
    Report.Caches.absorb(D.Caches);
    if (!D.Stats.Quiescent)
      ++Report.NotQuiescent;
  } else {
    if (Report.BuildErrors == 0)
      Report.FirstBuildError = D.BuildError;
    ++Report.BuildErrors;
  }

  if (D.discrepancy()) {
    ++Report.Discrepancies;
    ++Cov.Discrepancies;
    FuzzCase Minimal = Case;
    DiffReport Final = D;
    if (Config.ShrinkFailures) {
      ShrinkOutcome S = Shrinker(Runner, Config.Shrink).shrink(Case);
      if (S.Reproduced) {
        Minimal = std::move(S.Minimized);
        Final = std::move(S.FinalReport);
      }
    }
    std::string ReproFile, Replay;
    if (!Config.ReproDir.empty()) {
      std::error_code EC;
      std::filesystem::create_directories(Config.ReproDir, EC);
      ReproFile = Config.ReproDir + "/ppfuzz-" + Case.Engine + "-run" +
                  std::to_string(Report.RunsDone) + ".pp";
      std::ofstream Os(ReproFile);
      Os << Minimal.toScenarioText();
      Replay = "ppfuzz --replay " + ReproFile;
      // A fault-injected campaign's failures only reproduce under the
      // same injection.
      if (!Config.Diff.DisabledCriterion.empty())
        Replay += " --disable-criterion '" + Config.Diff.DisabledCriterion +
                  "'";
    }
    Report.FailureReports.push_back("  engine: " + Minimal.Engine + " (" +
                                    std::to_string(Minimal.Threads.size()) +
                                    " threads, " +
                                    std::to_string(Minimal.totalOps()) +
                                    " ops after shrinking)\n" +
                                    Final.toString());
    Report.ReproFiles.push_back(ReproFile);
    Report.ReplayCommands.push_back(Replay);
    if (Config.Verbose && !ReproFile.empty())
      std::cerr << "ppfuzz: discrepancy minimized to " << ReproFile << "\n"
                << "ppfuzz: replay with: " << Replay << "\n";
  } else if (D.inconclusive()) {
    ++Report.Inconclusive;
  }

  if (Config.Verbose)
    std::cerr << "ppfuzz: run " << Report.RunsDone << "/" << Config.Runs
              << " engine=" << Case.Engine << " spec=" << Case.Specs[0].Kind
              << (Case.Specs.size() > 1 ? "+" + Case.Specs[1].Kind : "")
              << (D.discrepancy()     ? " DISCREPANCY"
                  : D.inconclusive()  ? " inconclusive"
                  : !D.Built          ? " build-error"
                                      : " ok")
              << "\n";
}

CampaignReport Campaign::run() {
  CampaignReport Report;
  auto Start = std::chrono::steady_clock::now();
  auto Expired = [&] {
    if (Config.MaxSeconds <= 0)
      return false;
    std::chrono::duration<double> Elapsed =
        std::chrono::steady_clock::now() - Start;
    return Elapsed.count() >= Config.MaxSeconds;
  };

  std::vector<FuzzCase> Directed = directedCases(Gen.config().Engines);
  for (uint64_t I = 0; I < Config.Runs && !Expired(); ++I) {
    // The directed seed corpus first, then mostly fresh generation (which
    // cycles the engine × spec-kind grid deterministically), sometimes a
    // structural mutant of a past case.
    if (I < Directed.size()) {
      Corpus.push_back(Directed[I]);
      runCase(Directed[I], Report);
      continue;
    }
    bool Mutate = !Corpus.empty() && R.chance(Config.MutantPct, 100);
    FuzzCase Case = Mutate ? Mut.mutate(Corpus[R.below(Corpus.size())], R)
                           : Gen.next();
    if (!Mutate) {
      if (Corpus.size() < 32)
        Corpus.push_back(Case);
      else
        Corpus[R.below(Corpus.size())] = Case;
    }
    runCase(Case, Report);
  }
  return Report;
}

//===- fuzz/Campaign.h - Differential fuzzing campaigns ---------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign loop: generate (or mutate) a case, run it differentially,
/// track per-engine rule coverage, and on a discrepancy shrink to a
/// 1-minimal reproducer and write it as a replayable `.pp` scenario under
/// the repro directory.  A campaign *fails* if any discrepancy was found,
/// if any case could not be built (say, an unknown engine or spec kind in
/// the config), or if some engine finished the campaign without
/// exercising its whole expected rule set (the fuzzer was not actually
/// testing that engine).
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_FUZZ_CAMPAIGN_H
#define PUSHPULL_FUZZ_CAMPAIGN_H

#include "fuzz/DiffRunner.h"
#include "fuzz/Generator.h"
#include "fuzz/Mutator.h"
#include "fuzz/Shrinker.h"

#include <map>

namespace pushpull {

/// Campaign knobs.
struct CampaignConfig {
  GeneratorConfig Gen;
  DiffConfig Diff;
  MutatorConfig Mut;
  ShrinkConfig Shrink;
  /// Cases to run.
  uint64_t Runs = 500;
  /// Wall-clock budget in seconds (0 = unlimited); useful for smoke runs.
  double MaxSeconds = 0;
  /// Percentage of runs that mutate a previously-run case instead of
  /// generating a fresh one (the coverage-widening move).
  unsigned MutantPct = 30;
  /// Shrink discrepancies before reporting them.
  bool ShrinkFailures = true;
  /// Where minimized reproducers are written (empty = don't write files).
  std::string ReproDir;
  /// Per-run progress lines on stderr.
  bool Verbose = false;
};

/// What the campaign observed for one engine.
struct EngineCoverage {
  uint64_t Runs = 0;
  uint64_t Commits = 0;
  uint64_t Aborts = 0;
  uint64_t Discrepancies = 0;
  /// Rule-mix histogram summed over the engine's runs.
  uint64_t RuleCounts[7] = {};

  /// Bitmask of rules with a nonzero count.
  uint32_t observedMask() const;
};

/// Aggregated campaign outcome.
struct CampaignReport {
  uint64_t RunsDone = 0;
  uint64_t Discrepancies = 0;
  uint64_t Inconclusive = 0;
  uint64_t NotQuiescent = 0;
  /// Cases that could not be built, and the first one's reason.
  uint64_t BuildErrors = 0;
  std::string FirstBuildError;
  std::map<std::string, EngineCoverage> PerEngine;
  /// Full DiffReport renderings of (shrunken) failures.
  std::vector<std::string> FailureReports;
  /// Paths of written reproducers, aligned with FailureReports.
  std::vector<std::string> ReproFiles;
  /// `ppfuzz --replay <file>` command lines, aligned with ReproFiles.
  std::vector<std::string> ReplayCommands;
  /// Interning/memoization counters summed over all runs.
  CacheStats Caches;

  /// "engine: RULE, RULE" lines for engines that ran but did not exercise
  /// their whole expected rule set (empty = full coverage).
  std::vector<std::string> uncoveredRules() const;

  /// No discrepancies, every case built, and full expected-rule coverage.
  bool ok() const {
    return Discrepancies == 0 && BuildErrors == 0 && uncoveredRules().empty();
  }

  /// Multi-line summary (per-engine rule histograms, failures, repros).
  std::string toString() const;
};

/// Drives a whole campaign.
class Campaign {
public:
  explicit Campaign(CampaignConfig Config);

  CampaignReport run();

private:
  /// Run one case end-to-end (diff, account, shrink + write on failure).
  void runCase(const FuzzCase &Case, CampaignReport &Report);

  CampaignConfig Config;
  Generator Gen;
  Mutator Mut;
  DiffRunner Runner;
  Rng R;
  /// Reservoir of past cases for mutation.
  std::vector<FuzzCase> Corpus;
};

} // namespace pushpull

#endif // PUSHPULL_FUZZ_CAMPAIGN_H

//===- sim/Scenario.h - Declarative experiment scenarios --------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small declarative format for describing a complete experiment — the
/// specification(s), the TM engine, the schedule, the thread programs,
/// and the checks to run — so scenarios can live in text files and be
/// driven by the `pprun` tool (or constructed programmatically in tests):
///
///   # Figure 2, in scenario form.
///   spec map name=map keys=8 vals=4
///   engine boosting seed=42
///   schedule random seed=7 maxsteps=100000
///   thread tx { a := map.put(1, 2) }; tx { b := map.get(1) }
///   thread tx { c := map.put(1, 3) }
///   check serializability
///   check opacity
///
/// Multiple `spec` lines compose into a CompositeSpec (the Section 7
/// mixture).  Supported specs: register, counter, set, map, queue, bank.
/// Supported engines: optimistic, checkpoint, boosting, pessimistic,
/// irrevocable, dependent, early-release, htm, htm-word, hybrid.
/// docs/SCENARIOS.md lists the keys each directive takes and their
/// ranges; any other key is an error.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SIM_SCENARIO_H
#define PUSHPULL_SIM_SCENARIO_H

#include "core/Machine.h"
#include "sim/Reduction.h"
#include "sim/Scheduler.h"
#include "sim/Stats.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pushpull {

class TMEngine;

/// A parsed scenario, ready to run.
struct Scenario {
  /// The composed specification (single part or composite).
  std::shared_ptr<const SequentialSpec> Spec;
  /// Engine selector (one of the names above).
  std::string Engine = "optimistic";
  /// Engine key=value options (seed, deadlock, abort%, conflict%, htm=...).
  std::map<std::string, std::string> EngineOpts;
  /// Scheduler policy ("random", "roundrobin", "pct", or "replay"), seed,
  /// step budget, and PCT change-point count.
  SchedulePolicy Policy = SchedulePolicy::RandomUniform;
  uint64_t ScheduleSeed = 1;
  uint64_t MaxSteps = 200000;
  unsigned ChangePoints = 3;
  /// For the "replay" policy: the recorded pick sequence
  /// (`schedule replay picks=0,1,0,...` — the `.ppsched` format).
  std::vector<uint32_t> ReplayPicks;
  /// Fault injection (`inject PUSH criterion (ii)`): forwarded to
  /// MachineConfig::DisabledCriterion.  Empty in production scenarios.
  std::string DisabledCriterion;
  /// Per-thread transaction sequences.
  std::vector<std::vector<CodePtr>> Threads;
  /// Requested checks: "serializability", "serializability-any",
  /// "opacity", "invariants", "explore".
  std::vector<std::string> Checks;
  /// Resource bounds for the mover/precongruence engines the run and its
  /// checks construct (pprun --max-reachable / --max-pairs).
  MoverLimits Movers;
  PrecongruenceLimits Pre;
  /// Worker threads for the "explore" check (pprun --threads).
  unsigned ExplorerThreads = 1;
  /// Partial-order reduction for the "explore" check (pprun --reduction).
  Reduction ExplorerReduction = Reduction::None;
  /// Certified commutativity oracle for the "explore" check (pprun
  /// --commut-db): enables the PUSH x PUSH independence refinement and the
  /// G-order quotient key together.  Not owned; must outlive the run and
  /// cover the scenario's operation alphabet (see core/Commut.h).
  const CommutativityOracle *CommutDB = nullptr;
  /// Skip the per-terminal serializability replay in "explore": only set
  /// after ppcheck --prove (or pprun --static-prove) established a
  /// whole-program proof for this scenario's engine surface.
  bool SkipOracleReplay = false;
};

/// Parse outcome.
struct ScenarioParseResult {
  std::unique_ptr<Scenario> Parsed;
  std::string Error;
  size_t ErrorLine = 0;

  bool ok() const { return Parsed != nullptr; }
};

/// Largest value of a spec size option (regs, vals, counters, mod, keys,
/// cap, accounts, initial).  Domains stay small so the oracle and the
/// linter's state enumeration stay cheap; the scenarios, tests and the
/// fuzz generator use at most 16.
inline constexpr uint64_t MaxSpecSize = 64;

/// Most PCT change points a schedule line takes: the scheduler scatters
/// them over the first 4096 steps.
inline constexpr uint64_t MaxChangePoints = 4096;

/// Parse the scenario text format.  Never throws: every failure is an
/// Error with the line it is on (0 for a file-level error such as a
/// missing spec).  The parser checks the directives, their keys, and
/// every number — each must be whole and in its key's range, picks and
/// `irrevocable` must name a thread of the scenario, and program
/// literals must fit a Value — and a known engine's options.  It leaves
/// to the linter and the run an unknown engine, check or inject name.
ScenarioParseResult parseScenario(const std::string &Text);

/// Read the file at \p Path and parse it; an unreadable file is a
/// file-level error.
ScenarioParseResult readScenarioFile(const std::string &Path);

/// Build one spec part from a scenario-style kind ("register", "counter",
/// "set", "map", "queue", "bank") and key=value options.  \p Name receives
/// the part's object name (the "name" option, defaulting to the kind).
/// Returns nullptr and sets \p Error for an unknown kind, a key the kind
/// does not take, or a size that is not a whole number in range.  Shared
/// by the scenario parser and the fuzzer's case builder.
std::shared_ptr<const SequentialSpec>
makeSpecPart(const std::string &Kind,
             const std::map<std::string, std::string> &Opts,
             std::string &Name, std::string &Error);

/// Build a TM engine by scenario name ("optimistic", "checkpoint",
/// "boosting", "pessimistic", "irrevocable", "dependent", "early-release",
/// "htm", "htm-word", "hybrid") over \p M, honouring the engine's
/// key=value options.  Returns nullptr and sets \p Error for an unknown
/// name, a key the engine does not take, or a value outside its key's
/// range.  A thread key (`irrevocable`) is not checked against \p M's
/// threads, since a machine may get its threads after its engine (the
/// prover builds one with none); parseScenario checks it against the
/// file.  Never throws.  Shared by runScenario, the fuzzer's DiffRunner,
/// the stress runtime and the prover.
std::unique_ptr<TMEngine>
makeEngine(const std::string &Name,
           const std::map<std::string, std::string> &Opts,
           PushPullMachine &M, std::string &Error);

/// The ten scenario engine names, in canonical order.
const std::vector<std::string> &allEngineNames();

/// The six primitive spec kinds, in canonical order ("composite" mixes
/// are built from several parts).
const std::vector<std::string> &allSpecKinds();

/// Split a thread program `tx {..}; tx {..}; ...` into its transaction
/// list.  Returns empty (and sets Error) if a method occurs outside a
/// transaction (the paper's well-formedness condition).
std::vector<CodePtr> flattenTransactions(const CodePtr &C,
                                         std::string &Error);

/// Result of running a scenario.
struct ScenarioOutcome {
  RunStats Stats;
  /// Verdicts of the requested checks, as "name: verdict" lines.
  std::vector<std::string> CheckResults;
  /// The run's rule trace rendering.
  std::string Trace;
  /// The criteria audit: every applied rule with per-criterion verdicts
  /// (the machine-checked discharge record of the paper's
  /// side-conditions).
  std::string Audit;
  /// Final committed shared log rendering.
  std::string CommittedLog;
  /// Interning/memoization effectiveness of the run (pprun --stats).
  CacheStats Caches;
  /// True iff the run finished and every check passed.
  bool Ok = false;
};

/// Build the machine and engine, run to quiescence, perform the checks.
ScenarioOutcome runScenario(const Scenario &S);

} // namespace pushpull

#endif // PUSHPULL_SIM_SCENARIO_H

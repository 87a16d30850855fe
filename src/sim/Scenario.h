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
/// A Scenario is the one description of an engine run.  `pprun`, the
/// fuzzer's cases and reproducers, and the stress runtime's live rounds,
/// shadow replays and `.ppsched` dumps are all Scenarios: EngineRun is
/// the one way any of them is built into a machine and an engine, and
/// printScenario the one way any of them is written back as text, so a
/// replay cannot be built differently from the run it reproduces.
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

/// One `spec` line: a kind and its key=value options.  A scenario keeps
/// its lines, so every run can be printed back as a scenario file.
struct SpecDesc {
  std::string Kind;
  std::map<std::string, std::string> Opts;
};

/// A parsed scenario, ready to run.
struct Scenario {
  /// The `spec` lines, in order, and the specification they compose to
  /// (single part or composite; see composeSpec).
  std::vector<SpecDesc> Specs;
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

/// Write \p S as scenario text that parses back to it: its spec, engine,
/// schedule, inject, thread and check lines.  A replay schedule is written
/// with its picks, and with maxsteps only when it is not the default (a
/// replay reads no seed or change points).  Every `.pp` and `.ppsched`
/// the tools write is a header comment plus this text.
std::string printScenario(const Scenario &S);

/// Build one spec part from a scenario-style kind ("register", "counter",
/// "set", "map", "queue", "bank") and key=value options.  \p Name receives
/// the part's object name (the "name" option, defaulting to the kind).
/// Returns nullptr and sets \p Error for an unknown kind, a key the kind
/// does not take, or a size that is not a whole number in range.
std::shared_ptr<const SequentialSpec>
makeSpecPart(const std::string &Kind,
             const std::map<std::string, std::string> &Opts,
             std::string &Name, std::string &Error);

/// Build the specification \p Specs describe: the one part, or a
/// CompositeSpec of several with distinct names.  Returns nullptr and sets
/// \p Error on no lines, a bad line or a duplicate name; \p Bad, when
/// given, then receives the index of the bad line (Specs.size() when there
/// is none).  Shared by the parser and the fuzzer's case builder.
std::shared_ptr<const SequentialSpec>
composeSpec(const std::vector<SpecDesc> &Specs, std::string &Error,
            size_t *Bad = nullptr);

/// Build a TM engine by scenario name ("optimistic", "checkpoint",
/// "boosting", "pessimistic", "irrevocable", "dependent", "early-release",
/// "htm", "htm-word", "hybrid") over \p M, honouring the engine's
/// key=value options.  Returns nullptr and sets \p Error for an unknown
/// name, a key the engine does not take, or a value outside its key's
/// range.  A thread key (`irrevocable`) is not checked against \p M's
/// threads, since a machine may get its threads after its engine;
/// parseScenario checks it against the file.  Never throws.  Runs build
/// their engines through EngineRun.
std::unique_ptr<TMEngine>
makeEngine(const std::string &Name,
           const std::map<std::string, std::string> &Opts,
           PushPullMachine &M, std::string &Error);

/// What an engine's strategy claims: the rules it can ever fire (an
/// or-of-ruleBit mask, TMEngine::ruleMask) and whether it pulls
/// uncommitted effects (TMEngine::pullsUncommitted).
struct EngineSurface {
  uint32_t RuleMask = 0;
  bool PullsUncommitted = false;
};

/// The surface of engine \p Name, read once from a real instance of every
/// engine (the claims are per algorithm, not per option); null for an
/// unknown name.  A lookup allocates nothing and builds no engine.
const EngineSurface *engineSurface(const std::string &Name);

/// Rules \p Engine claims it can fire, as a bitmask over RuleKind; 0 for
/// an unknown name.  A fuzz campaign fails unless it fires every one.
inline uint32_t expectedRuleMask(const std::string &Engine) {
  const EngineSurface *S = engineSurface(Engine);
  return S ? S->RuleMask : 0;
}

/// Must \p Engine stay inside the Section 6.1 opaque fragment?  True
/// unless it claims to pull uncommitted effects (only the dependent
/// engine does, by design); true for an unknown name.
inline bool engineExpectedOpaque(const std::string &Engine) {
  const EngineSurface *S = engineSurface(Engine);
  return !S || !S->PullsUncommitted;
}

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

/// One engine run's objects, built from a scenario: a MoverChecker over
/// its spec, the machine with its threads, and the engine it names.
/// Every run and every replay is built here — pprun, the fuzzer's
/// DiffRunner, and the stress worker and the shadow that replays it — so
/// none can be built differently from another.  \p S must outlive the run.
class EngineRun {
public:
  /// \p MC is the caller's machine settings (trace and audit recording,
  /// the rule hook); an empty MC.DisabledCriterion takes the scenario's
  /// `inject`.  \p Movers and \p Pre bound the mover checker.
  EngineRun(const Scenario &S, MachineConfig MC, const MoverLimits &Movers,
            const PrecongruenceLimits &Pre);
  /// With the scenario's own mover/precongruence limits.
  EngineRun(const Scenario &S, MachineConfig MC)
      : EngineRun(S, std::move(MC), S.Movers, S.Pre) {}
  // The machine refers to the mover checker, and the engine to the
  // machine: a run stays where it was built.
  EngineRun(const EngineRun &) = delete;
  EngineRun &operator=(const EngineRun &) = delete;

  /// Null when the engine could not be built; error() says why.
  TMEngine *engine() const { return Engine.get(); }
  const std::string &error() const { return Error; }
  PushPullMachine &machine() { return M; }
  MoverChecker &movers() { return Movers; }

  /// Drive the engine under the scenario's schedule until quiescence, the
  /// step budget, or the end of a replay's picks.
  RunStats run();

private:
  const Scenario &Source;
  MoverChecker Movers;
  PushPullMachine M;
  std::unique_ptr<TMEngine> Engine;
  std::string Error;
};

/// Build the machine and engine, run to quiescence, perform the checks.
ScenarioOutcome runScenario(const Scenario &S);

} // namespace pushpull

#endif // PUSHPULL_SIM_SCENARIO_H

//===- fuzz/DiffRunner.h - One differential run ------------------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one scenario — a fuzz case, a `.pp` reproducer or a `.ppsched`
/// dump, built by EngineRun like every other run — and cross-checks it
/// three ways against independent ground truths:
///
///  1. *Atomic-oracle replay* (Theorem 5.17's witness): the committed
///     transactions are replayed through the Figure 3 atomic machine in
///     commit order and the committed shared log must be precongruent to
///     some replay log.  When the commit-order replay says No, the run is
///     re-checked over every serial order (diagnostic context: does *any*
///     witness exist, or is the run flatly non-serializable?).
///
///  2. *Fragment classification* (Section 6.1): the rule trace is
///     classified against the opaque fragment; engines whose strategy
///     never pulls uncommitted effects must stay inside it.
///
///  3. *Machine invariants* (Section 5.3): the Lemma 5.7-5.12 invariant
///     suite is re-established after every rule firing, via the machine's
///     observation hook — unlike ValidationLevel::Full this records the
///     violation instead of aborting, so the shrinker can minimize it.
///
/// Any No from (1), an unexpected fragment exit in (2), or a violation in
/// (3) is a *discrepancy*: implementation and model disagree.  Reports
/// carry the run's interning/memoization counters so a discrepancy
/// implicating the representation layer is directly auditable.  The
/// scenario's check lines are ignored: the runner always performs the
/// full battery.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_FUZZ_DIFFRUNNER_H
#define PUSHPULL_FUZZ_DIFFRUNNER_H

#include "check/Opacity.h"
#include "core/Atomic.h"
#include "core/Mover.h"
#include "core/Precongruence.h"
#include "fuzz/Generator.h"
#include "sim/Scenario.h"
#include "sim/Stats.h"

namespace pushpull {

/// Differential-run knobs.
struct DiffConfig {
  /// Resource bounds for the oracle and the semantic engines.
  AtomicLimits Atomic{64, 20000};
  PrecongruenceLimits Pre;
  MoverLimits Movers;
  /// Re-check the Section 5.3 invariants after every rule firing.
  bool CheckInvariantsEachRule = true;
  /// Stop invariant re-checking after this many rule firings (abort-retry
  /// storms fire tens of thousands of rules; the tail repeats the same
  /// configurations).
  uint64_t MaxInvariantCheckedRules = 4000;
  /// Escalate a commit-order No to an all-orders search (diagnostics).
  bool EscalateToAnyOrder = true;
  /// Test-only fault injection forwarded to MachineConfig: criterion with
  /// this exact name is skipped (see the shrinker self-test).  Overrides
  /// the scenario's own `inject` when set.
  std::string DisabledCriterion;
};

/// Everything one differential run observed.
struct DiffReport {
  /// False when the case could not even be built (bad spec/engine); the
  /// reason is in BuildError and no other field is meaningful.
  bool Built = false;
  std::string BuildError;

  RunStats Stats;

  /// (1) Atomic-oracle replay, in commit order.
  Tri Serializable = Tri::Unknown;
  std::string SerializabilityDetail;
  uint64_t OutcomesTried = 0;
  /// Escalation verdict over all serial orders (Unknown when not run).
  Tri SerializableAnyOrder = Tri::Unknown;

  /// (2) Opaque-fragment classification.
  OpacityReport Opacity;
  bool OpacityViolated = false;

  /// (3) First invariant violation observed after a rule firing.
  bool InvariantViolated = false;
  std::string InvariantDetail;
  uint64_t RulesInvariantChecked = 0;

  /// Interned-id / memoization context (PR 1 audit trail).
  CacheStats Caches;

  /// Implementation and model disagree: failed oracle replay, unexpected
  /// opacity-fragment exit, or a broken machine invariant.
  bool discrepancy() const {
    return Built &&
           (Serializable == Tri::No || OpacityViolated || InvariantViolated);
  }

  /// The run could not be fully adjudicated (budget exhaustion, oracle
  /// resource bounds).  Not a discrepancy; campaigns count these.
  bool inconclusive() const {
    return Built && !discrepancy() &&
           (!Stats.Quiescent || Serializable == Tri::Unknown);
  }

  /// Multi-line report rendering (verdicts, stats, cache counters).
  std::string toString() const;
};

/// A fuzz case with its spec built, as buildCase returns it.
using BuiltCase = Scenario;

/// A FuzzCase as a scenario with its spec built (Error + null Spec on bad
/// descriptors).
Scenario buildCase(const FuzzCase &Case, std::string &Error);

/// Executes and cross-checks single cases.
class DiffRunner {
public:
  explicit DiffRunner(DiffConfig Config = {}) : Config(std::move(Config)) {}

  DiffReport run(const Scenario &Case) const;
  DiffReport run(const FuzzCase &Case) const;

  const DiffConfig &config() const { return Config; }

private:
  DiffConfig Config;
};

} // namespace pushpull

#endif // PUSHPULL_FUZZ_DIFFRUNNER_H

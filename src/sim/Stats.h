//===- sim/Stats.h - Run statistics -----------------------------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statistics gathered from a scheduled run: rule-mix histogram (the
/// observable signature distinguishing the Section 6 algorithm families),
/// commits, aborts, blocked steps, and the committed-operations throughput
/// proxy used by the contention sweeps (E10).
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SIM_STATS_H
#define PUSHPULL_SIM_STATS_H

#include "core/Spec.h"
#include "core/Trace.h"
#include "support/Arena.h"

#include <cstdint>
#include <string>

namespace pushpull {

/// Aggregated counters for one run.
struct RunStats {
  uint64_t SchedulerSteps = 0;
  uint64_t BlockedSteps = 0;
  uint64_t Commits = 0;
  uint64_t Aborts = 0;
  /// Rule-mix histogram, indexed by RuleKind.
  uint64_t RuleCounts[7] = {};
  /// Operations in the final committed log.
  uint64_t CommittedOps = 0;
  /// True iff every thread finished within the step budget.
  bool Quiescent = false;

  uint64_t ruleCount(RuleKind K) const {
    return RuleCounts[static_cast<int>(K)];
  }

  /// Committed operations per scheduler step — the throughput proxy.
  double committedOpsPerStep() const;

  /// Abort ratio: aborts / (commits + aborts).
  double abortRatio() const;

  /// Fill the rule histogram from a trace.
  void absorbTrace(const RuleTrace &T);

  /// One-line rendering for bench output.
  std::string toString() const;
};

/// Aggregated counters for one real-concurrency stress run (ppstress).
/// Workers accumulate their private copies; the runner sums them after
/// join, so no field needs to be atomic.
struct StressStats {
  /// OS worker threads driven.
  unsigned Workers = 0;
  /// Engine steps, commits, and aborts summed over all workers.
  uint64_t Steps = 0;
  uint64_t Commits = 0;
  uint64_t Aborts = 0;
  /// Transactions the workload generated (committed + in flight at stop).
  uint64_t Transactions = 0;
  /// Commit windows the arbiter closed and the checker validated.
  uint64_t Windows = 0;
  /// Windows whose shadow replay disagreed with the live run, failed the
  /// atomic oracle, or left the opaque fragment unexpectedly.
  uint64_t WindowFailures = 0;
  /// Schedule records pushed through the per-worker rings, and the times
  /// a full ring made the producer spin-wait for the checker.
  uint64_t RingRecords = 0;
  uint64_t RingSpins = 0;
  /// Wall-clock run time, and the wall time until the last worker
  /// finished; the gap is the checker drain.  Window-check latency is
  /// checker-side.
  double ElapsedSec = 0.0;
  double WorkersSec = 0.0;
  uint64_t WindowCheckNs = 0;
  uint64_t MaxWindowCheckNs = 0;

  double commitsPerSec() const;
  double abortsPerSec() const;
  /// Seconds the checkers ran after the last worker finished.
  double drainSec() const;
  /// Mean checker latency per window, in microseconds.
  double meanWindowCheckUs() const;

  /// Merge one worker's (or one window's) counters into the total.
  void absorb(const StressStats &W);

  /// One-line rendering for ppstress/bench output.
  std::string toString() const;
};

/// Effectiveness counters for the interning/memoization layer of one run:
/// the spec's hash-consing table plus the mover/precongruence caches that
/// sit on top of it.  Purely observational — gathering them never changes
/// a verdict.
struct CacheStats {
  /// The spec table: states/sets/op keys interned and the transition memo.
  InternStats Intern;
  /// Left-mover decisions served from the memo vs computed semantically.
  uint64_t MoverMemoHits = 0;
  uint64_t MoverMemoMisses = 0;
  /// State-set pairs visited by the precongruence fixpoint.
  uint64_t PrecongruencePairs = 0;
  /// Reachable state sets enumerated for the mover's Definition 4.1
  /// quantification (0 when no semantic query ran).
  uint64_t ReachableSets = 0;
  /// Explorer partial-order-reduction counters (all zero unless the run's
  /// "explore" check ran with a reduction enabled; see sim/Reduction.h).
  uint64_t ExplorerFiringsPruned = 0;
  uint64_t ExplorerPersistentCuts = 0;
  uint64_t ExplorerSymmetryHits = 0;
  /// Fraction of the explorer's candidate firings the reduction pruned.
  double ExplorerReductionRatio = 0.0;
  /// Certified commutativity-table counters (all zero unless the run used
  /// a static commutativity DB; see analysis/MoverTable.h).  Hits are
  /// oracle queries answered "strongly commutes" (a refinement applied),
  /// misses queries answered "no / unknown"; CertChecks counts
  /// independent certificate verifications; ProvedPrograms counts
  /// whole-program serializability proofs accepted; OracleSkips counts
  /// terminal configurations whose serializability replay the proof made
  /// redundant.
  uint64_t CommutTableHits = 0;
  uint64_t CommutTableMisses = 0;
  uint64_t CertChecks = 0;
  uint64_t ProvedPrograms = 0;
  uint64_t OracleSkips = 0;
  /// Snapshot/copy traffic over the run (delta of the process-wide
  /// memstats counters): machine copies, O(1) chunk shares vs chunks the
  /// CoW layer actually had to clone, bytes carved into chunks and drawn
  /// from arenas.
  memstats::Snapshot Memory;

  double moverHitRate() const {
    uint64_t Total = MoverMemoHits + MoverMemoMisses;
    return Total ? static_cast<double>(MoverMemoHits) /
                       static_cast<double>(Total)
                 : 0.0;
  }

  /// Add one run's counters into the total.  The reduction ratio is a
  /// fraction of one explorer run, so it is not summed.
  void absorb(const CacheStats &R);

  /// Multi-line "  key: value" rendering for pprun --stats.
  std::string toString() const;
};

} // namespace pushpull

#endif // PUSHPULL_SIM_STATS_H

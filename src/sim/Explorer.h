//===- sim/Explorer.h - Exhaustive interleaving explorer --------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small-scope model checker over the PUSH/PULL machine itself: it
/// enumerates *every* interleaving of rule applications for a set of small
/// thread programs (DFS with memoized configurations) and checks, at every
/// quiescent configuration, that the run is serializable via the
/// independent oracle — the executable content of Theorem 5.17.  Unlike
/// the scheduler+engine runs (which explore one algorithm's strategy), the
/// explorer exercises the model's full nondeterminism, including the
/// backward rules when enabled.
///
/// Optionally the Section 5.3 invariants are re-checked at every explored
/// configuration (Lemmas 5.7-5.13 as runtime assertions).
///
/// ExplorerConfig::Reduce selects a partial-order reduction (see
/// sim/Reduction.h): sleep sets prune transitions whose exploration would
/// only re-derive commuted interleavings, persistent sets additionally
/// prune configurations (BEGIN-priority), and the symmetry mode
/// canonicalizes configurations under renaming of identical thread
/// programs before the visited-set lookup.  Every mode preserves the
/// *verdicts*: NonSerializable and InvariantViolations are zero under a
/// reduced search iff they are zero under Reduction::None, and the modes
/// without symmetry preserve the exact TerminalConfigs and per-terminal
/// verdict counts (the tests/reduction_test.cpp battery enforces this).
///
/// The search is one recursive DFS over one machine, on the calling
/// thread: each successor is fired in place and rolled back once its
/// subtree is done (the machine's undo trail), so no machine is copied.
/// Every configuration passes through one step, Explorer::enter, the only
/// place that counts a configuration, checks an invariant or asks the
/// oracle.
///
/// Every report field is deterministic: for a given (config, reduction
/// mode) the visit order is fixed, so the totals, the work counters
/// (RuleApplications, RejectedAttempts, FiringsPruned, PersistentCuts,
/// SymmetryHits) and the first failure repeat exactly from run to run.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SIM_EXPLORER_H
#define PUSHPULL_SIM_EXPLORER_H

#include "check/Serializability.h"
#include "core/Machine.h"
#include "sim/Reduction.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pushpull {

/// Exploration options.
struct ExplorerConfig {
  /// Validation regime of the explored machine.  Exploring with weakened
  /// criteria (e.g. EnforceGrayCriteria=false) is the ablation that
  /// demonstrates which side-conditions are load-bearing: the
  /// NonSerializable counter stops being zero.
  MachineConfig Machine;
  /// Include the backward rules (UNAPP/UNPUSH/UNPULL) in the enumeration.
  /// They enlarge the state space considerably; small scopes only.
  bool ExploreBackwardRules = false;
  /// Include PULLs of uncommitted entries (the non-opaque behaviours).
  bool ExploreUncommittedPulls = true;
  /// Re-check the Section 5.3 invariants at every configuration.
  bool CheckInvariants = false;
  /// Partial-order reduction mode (sim/Reduction.h).  None keeps the
  /// full enumeration; every mode preserves the verdicts (see the file
  /// comment).
  Reduction Reduce = Reduction::None;
  /// Stop after visiting this many distinct configurations.
  uint64_t MaxConfigs = 2000000;
  /// Abandon paths longer than this many rule applications.
  size_t MaxDepth = 64;
  /// Certified strong-commutation oracle (core/Commut.h), or null.  When
  /// set, two things happen *together* (they are only sound as a pair):
  /// the independence relation treats cross-thread PUSHes of strongly
  /// commuting operations as independent, and the visited-set key renders
  /// the global log in the oracle's canonical quotient order, merging
  /// configurations that differ only by certified commutations.  The
  /// oracle must be sound for the explored spec and cover its operation
  /// alphabet (analysis/MoverTable.h coversProgram); it must outlive the
  /// exploration.
  const CommutativityOracle *CommutDB = nullptr;
  /// Skip the per-terminal serializability oracle replay.  Only sound
  /// when the program has been statically proved conflict-serializable
  /// (ppcheck --prove); skipped verdicts are counted in
  /// ExplorerReport::OracleSkips and NonSerializable stays 0 by fiat.
  bool SkipOracle = false;
  /// Invoked on every *fresh* quiescent (terminal) configuration, after
  /// the visited-set claim.  Used by the equivalence tests to compare
  /// terminal state graphs across reduction modes.
  std::function<void(const PushPullMachine &)> OnTerminal;
};

/// Aggregate result of an exploration.
struct ExplorerReport {
  uint64_t ConfigsVisited = 0;
  uint64_t TerminalConfigs = 0;
  uint64_t RuleApplications = 0;
  uint64_t RejectedAttempts = 0;
  /// Quiescent configurations whose committed log the oracle could not
  /// certify serializable in commit order.  Theorem 5.17 says this must
  /// stay zero.
  uint64_t NonSerializable = 0;
  /// Invariant violations found (must stay zero).
  uint64_t InvariantViolations = 0;
  /// Candidate firings skipped by the reduction: sleep-set hits plus
  /// candidates dropped by a persistent-set restriction.  Zero under
  /// Reduction::None.
  uint64_t FiringsPruned = 0;
  /// Configurations at which the persistent-set restriction applied
  /// (an idle thread's BEGIN was the whole exploration frontier).
  uint64_t PersistentCuts = 0;
  /// Visits whose configuration canonicalized to a non-identity thread
  /// relabeling (symmetry mode only).
  uint64_t SymmetryHits = 0;
  /// Terminal configurations whose oracle replay was skipped because the
  /// program was statically proved serializable (ExplorerConfig::
  /// SkipOracle).  Zero otherwise.
  uint64_t OracleSkips = 0;
  bool Truncated = false;
  /// Diagnostic for the first failure, if any.
  std::string FirstFailure;

  bool clean() const {
    return NonSerializable == 0 && InvariantViolations == 0;
  }

  /// Fraction of enumerated candidate firings the reduction pruned.
  double reductionRatio() const {
    uint64_t Attempted = RuleApplications + RejectedAttempts;
    uint64_t All = Attempted + FiringsPruned;
    return All ? static_cast<double>(FiringsPruned) / static_cast<double>(All)
               : 0.0;
  }
};

/// Exhaustively explores a machine's reachable configurations.
class Explorer {
public:
  Explorer(const SequentialSpec &Spec, MoverChecker &Movers,
           ExplorerConfig Config = {});

  /// Explore all interleavings of \p Programs (one inner vector per
  /// thread; each element one transaction).
  ExplorerReport explore(const std::vector<std::vector<CodePtr>> &Programs);

private:
  /// The state of one explore() call (Explorer.cpp).
  struct Search;

  /// The per-configuration step: check the budget and depth, claim \p M's
  /// canonical key in the visited set, and on a fresh claim count the
  /// configuration, check the invariants and, at a quiescent
  /// configuration, count the terminal and ask the oracle.  Returns
  /// whether the caller should expand \p M's successors.
  bool enter(Search &S, const PushPullMachine &M, size_t Depth,
             const SleepSet &Sleep);

  /// The search: a recursive DFS over one machine.  Each successor is
  /// fired on \p M in place and rolled back once its subtree is done, so
  /// \p M is as it was when visit returns.
  void visit(Search &S, PushPullMachine &M, size_t Depth,
             const SleepSet &Sleep);

  /// Render into \p Out the canonical visited-set key of \p M under the
  /// configured reduction: the minimum of configKey over the symmetry
  /// group (identity only, unless symmetry is enabled).  \p Sleep is
  /// relabeled through the minimizing permutation so that sleep sets
  /// stored under a canonical key are expressed in the canonical labeling.
  /// Bumps \p SymmetryHits when the minimizer is not the identity.
  void canonicalKey(const PushPullMachine &M, SleepSet &Sleep,
                    uint64_t &SymmetryHits, std::string &Out) const;

  const SequentialSpec &Spec;
  MoverChecker &Movers;
  ExplorerConfig Config;
  /// Thread relabelings for the symmetry reduction (identity first).
  /// Empty unless Config.Reduce enables symmetry.
  std::vector<std::vector<TxId>> Perms;
};

} // namespace pushpull

#endif // PUSHPULL_SIM_EXPLORER_H

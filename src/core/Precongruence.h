//===- core/Precongruence.h - Executable Definition 3.1 ---------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared-log precongruence of Definition 3.1, defined coinductively
/// (greatest fixpoint):
///
///     allowed l1 => allowed l2      forall op. (l1.op) =< (l2.op)
///     -------------------------------------------------------------
///                            l1 =< l2
///
/// Executable decision procedure: since allowed is induced by a denotation
/// into state sets ([[l]] != {}), the relation l1 =< l2 depends only on the
/// pair of state sets ([[l1]], [[l2]]), and the coinductive rule unfolds to
/// a *reachability* question on the pair graph under the probe alphabet:
///
///  * a reachable pair with nonempty left but empty right component is a
///    finite counterexample witness (a distinguishing suffix), so No is
///    exact;
///  * exhausting the reachable closure without finding one means the
///    visited set is a relation closed under the rule, hence contained in
///    the greatest fixpoint: Yes is exact;
///  * if the configured pair budget is exhausted first, we answer Unknown.
///
/// The search is breadth-first and iterative (pair graphs of composite
/// specifications can be deep).
///
/// For finite-state specifications with complete probe alphabets the
/// procedure is a decision procedure for Definition 3.1; tests cross-check
/// its laws (reflexivity, transitivity — Lemma 5.2, closure under append —
/// Lemma 5.3).
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_CORE_PRECONGRUENCE_H
#define PUSHPULL_CORE_PRECONGRUENCE_H

#include "core/Spec.h"
#include "support/Tri.h"

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace pushpull {

/// Resource bounds for the fixpoint exploration.
struct PrecongruenceLimits {
  /// Maximum number of distinct state-set pairs to visit per query before
  /// answering Unknown.
  size_t MaxPairs = 200000;
};

/// Decision procedure for the shared-log precongruence, with caching that
/// persists across queries (sound: Yes answers denote membership in the
/// greatest fixpoint; No answers have finite witnesses).
///
/// All internal bookkeeping is on interned StateSetIds: a pair of state
/// sets is one uint64, so the visited/known sets hash and compare integers
/// instead of canonical state strings.
class PrecongruenceChecker {
public:
  explicit PrecongruenceChecker(const SequentialSpec &Spec,
                                PrecongruenceLimits Limits = {});

  /// Is l1 =< l2, where the logs are given by their denotations?
  Tri check(const StateSet &S1, const StateSet &S2);

  /// Interned form: the hot entry point for the mover checker.
  Tri check(StateSetId S1, StateSetId S2);

  /// Is l1 =< l2?  Denotes both logs from the initial states first.
  Tri checkLogs(const std::vector<Operation> &L1,
                const std::vector<Operation> &L2);

  /// Number of state-set pairs visited over the checker's lifetime
  /// (exploration effort; reported by bench_mover / E8).
  uint64_t pairsVisited() const { return PairsVisited; }

  /// Cache sizes, for diagnostics.
  size_t knownGoodCount() const { return KnownGood.size(); }
  size_t knownBadCount() const { return KnownBad.size(); }

private:
  const SequentialSpec &Spec;
  PrecongruenceLimits Limits;
  /// The spec's probe alphabet and its interned keys (owned by the spec).
  const std::vector<Operation> &Probes;
  const std::vector<OpKeyId> &ProbeKeys;

  /// Pairs proved related by a completed (counterexample-free) query.
  std::unordered_set<uint64_t> KnownGood;
  /// Pairs with a concrete counterexample (the refuted pair and every pair
  /// on the path that reached it).
  std::unordered_set<uint64_t> KnownBad;

  uint64_t PairsVisited = 0;
};

} // namespace pushpull

#endif // PUSHPULL_CORE_PRECONGRUENCE_H

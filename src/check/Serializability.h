//===- check/Serializability.h - Theorem 5.17 as an oracle ------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An *independent* serializability oracle.  Theorem 5.17 proves every
/// PUSH/PULL run serializable by simulation: the committed projection of
/// the shared log, |G|_gCmt, is precongruent to the log of some atomic
/// execution of the committed transactions.  Instead of trusting the
/// theorem, this checker searches for the witness: it replays the
/// committed transactions (their rewound otx bodies) through the atomic
/// machine of Figure 3 — in commit order, or over all permutations — and
/// asks the precongruence engine whether |G|_gCmt =< atomic log.
///
/// The question depends on the atomic log only through its denotation, so
/// the search runs on denotations (AtomicMachine::searchSerialDenotations):
/// [[|G|_gCmt]] is computed once, each distinct final denotation S of an
/// atomic run is tried once, and the first S with [[|G|_gCmt]] =< S is the
/// witness.  A search cut short by AtomicLimits::MaxOutcomes without a
/// witness is Unknown, never No.
///
/// The simulation proof constructs the witness in commit order (the CMT
/// rule is the linearization point), so checkCommitOrder succeeding is the
/// expected outcome for every criteria-respecting run; checkAnyOrder exists
/// to diagnose runs of *broken* engines (tests that deliberately violate
/// criteria) where commit order may fail but some other order — or none —
/// works.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_CHECK_SERIALIZABILITY_H
#define PUSHPULL_CHECK_SERIALIZABILITY_H

#include "core/Atomic.h"
#include "core/Machine.h"
#include "core/Precongruence.h"

#include <string>
#include <vector>

namespace pushpull {

/// Outcome of a serializability query.
struct SerializabilityVerdict {
  Tri Serializable = Tri::Unknown;
  /// Thread ids of the witnessing serial order (when Yes).
  std::vector<TxId> WitnessOrder;
  /// Number of distinct final denotations of atomic runs examined.
  uint64_t OutcomesTried = 0;
  std::string Detail;
};

/// Searches atomic executions for serializability witnesses.
class SerializabilityChecker {
public:
  SerializabilityChecker(const SequentialSpec &Spec,
                         AtomicLimits Limits = {},
                         PrecongruenceLimits PreLimits = {});

  /// Is |G|_gCmt of \p M precongruent to an atomic run of M's committed
  /// transactions *in commit order* (the witness Theorem 5.17's proof
  /// constructs)?
  SerializabilityVerdict checkCommitOrder(const PushPullMachine &M);

  /// Like checkCommitOrder but over every permutation of the committed
  /// transactions (capped at \p MaxTxsForPermutations of them).
  SerializabilityVerdict checkAnyOrder(const PushPullMachine &M,
                                       size_t MaxTxsForPermutations = 7);

  /// Raw form: does some atomic run of \p Txs (in the given order) yield a
  /// log that \p CommittedLog is precongruent to?
  SerializabilityVerdict
  checkOrder(const std::vector<CommittedTx> &Txs,
             const std::vector<Operation> &CommittedLog);

private:
  const SequentialSpec &Spec;
  AtomicLimits Limits;
  PrecongruenceChecker Pre;
};

} // namespace pushpull

#endif // PUSHPULL_CHECK_SERIALIZABILITY_H

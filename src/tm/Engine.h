//===- tm/Engine.h - TM algorithm engines -----------------------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A TM *engine* is the executable form of a Section 6 case study: a
/// strategy that drives threads through the PUSH/PULL machine in one
/// algorithm's characteristic rule pattern (optimistic TMs PUSH at commit,
/// pessimistic ones right after APP, hybrids a mixture — Section 2).
/// Engines never touch logs directly; every effect goes through a machine
/// rule, whose criteria the machine validates.  An engine bug that would
/// break a side-condition is therefore *rejected*, not silently serialized.
///
/// The scheduler calls step(T) to advance thread T by one algorithm step.
/// One step may perform several machine rules when the algorithm requires
/// an uninterleaved sequence (e.g. an optimistic commit's push-all+CMT):
/// machine rule calls are atomic, and the scheduler only interleaves
/// between engine steps, which models "at an uninterleaved moment".
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_TM_ENGINE_H
#define PUSHPULL_TM_ENGINE_H

#include "core/Machine.h"
#include "support/Rng.h"

#include <string>

namespace pushpull {

/// What an engine step did for the scheduler's bookkeeping.
enum class StepStatus {
  Progress,  ///< Advanced (APP/PUSH/PULL/begin/...).
  Blocked,   ///< Could not advance now (lock held, waiting on another tx).
  Committed, ///< This step performed a CMT.
  Aborted,   ///< This step rolled the transaction back (it will retry).
  Finished,  ///< Thread has no work left.
};

std::string toString(StepStatus S);

/// Bit of rule \p K within an engine rule mask (see TMEngine::ruleMask).
inline constexpr uint32_t ruleBit(RuleKind K) {
  return 1u << static_cast<unsigned>(K);
}

/// Mask of all seven Figure 5 rules.
inline constexpr uint32_t allRulesMask() {
  return ruleBit(RuleKind::App) | ruleBit(RuleKind::UnApp) |
         ruleBit(RuleKind::Push) | ruleBit(RuleKind::UnPush) |
         ruleBit(RuleKind::Pull) | ruleBit(RuleKind::UnPull) |
         ruleBit(RuleKind::Commit);
}

/// Base class for the Section 6 algorithm engines.
class TMEngine {
public:
  explicit TMEngine(PushPullMachine &M) : M(&M) {}
  virtual ~TMEngine();

  /// Algorithm name, e.g. "optimistic(tl2-style)".
  virtual std::string name() const = 0;

  /// Advance thread \p T by one algorithm step.
  virtual StepStatus step(TxId T) = 0;

  // -- Static guard introspection (consumed by ppcheck) --------------------

  /// Which machine rules this engine's strategy can ever attempt, as an
  /// or-of-ruleBit mask.  This is a *static claim about the algorithm*,
  /// not a runtime observation: the criterion-obligation audit restricts
  /// its rule probes to this mask, and the fuzzer's per-engine
  /// expected-rule masks (fuzz/DiffRunner.h) are cross-checked against it
  /// in tests.  The conservative default claims every rule.
  virtual uint32_t ruleMask() const { return allRulesMask(); }

  /// Does the strategy ever PULL an *uncommitted* global entry?  Only the
  /// dependent-transaction design does; everything else stays inside the
  /// Section 6.1 opaque fragment, and the audit skips uncommitted-entry
  /// PULL probes for it.  Conservative default: yes.
  virtual bool pullsUncommitted() const { return true; }

  /// Total transaction aborts (rollback-and-retry events) so far.
  uint64_t aborts() const { return Aborts; }

  PushPullMachine &machine() { return *M; }
  /// Const view for observers (the stress runner's capture hooks read
  /// log sizes and commit counts between steps without mutation rights).
  const PushPullMachine &machine() const { return *M; }

protected:
  /// Roll the in-progress transaction of \p T all the way back: from the
  /// tail of the local log, UNPULL pulled entries, UNPUSH+UNAPP pushed
  /// ones, UNAPP unpushed ones.  Afterwards the thread's code and stack
  /// are back at the otx rewind point (each UNAPP restores the saved
  /// pre-code/pre-stack), the transaction is still in progress, and the
  /// engine may re-execute it.  Returns false if some backward rule was
  /// rejected (e.g. another transaction still depends on a pushed op).
  bool rewindAll(TxId T);

  /// Partial rewind: pop local-log entries from the tail until only
  /// \p KeepEntries remain (the Section 7 "rewind some code" move and the
  /// dependent-transaction detangle).  Returns false on rejection.
  bool rewindTo(TxId T, size_t KeepEntries);

  /// Pop exactly one entry off the tail of T's local log with the
  /// appropriate backward rule(s).  Returns false on rejection.
  bool popTail(TxId T);

  /// Optimistic validation dry run: push every unpushed entry of \p T in
  /// APP order, under an undo mark.  Returns the local index of the first
  /// push the machine rejects, or LocalLog::npos when every push would
  /// apply.  The pushes are rolled back before this returns.
  size_t firstRejectedPush(TxId T);

  PushPullMachine *M;
  uint64_t Aborts = 0;
};

} // namespace pushpull

#endif // PUSHPULL_TM_ENGINE_H

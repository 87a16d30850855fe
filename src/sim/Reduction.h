//===- sim/Reduction.h - Partial-order reduction for the explorer -*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Partial-order reduction for the exhaustive explorer: a static
/// independence relation over rule firings, sleep sets, persistent-set
/// restriction, and transaction-id symmetry canonicalization.
///
/// The independence relation is derived from the *criterion footprints* of
/// the Figure 5 rules as they are evaluated in core/Machine.cpp (see
/// ruleFootprint there): two enabled firings commute when they belong to
/// different threads and their criteria read disjoint parts of the
/// configuration.  Thread-local state (code, stack, local log L) is only
/// ever read or written by its own thread's rules, so any firing whose
/// criteria do not consult the shared log G — BEGIN, APP, UNAPP, UNPULL —
/// is independent of every firing of every other thread.  Firings that
/// touch G are refined entry-wise:
///
///   * PULL x PULL: both only read G entries and append to their own L,
///     so any two cross-thread pulls commute (even of the same entry).
///   * PULL x PUSH: PUSH appends; it moves no existing entry, and PULL
///     adds nothing PUSH's criteria (i)-(iii) read.
///   * PULL x CMT: CMT flips only the committer's gUCmt entries, so a
///     pull of an entry that is already committed or owned by a third
///     thread commutes with it.
///   * everything else that writes G (PUSH x PUSH order in G, CMT x CMT
///     commit order, UNPUSH removals) is conservatively dependent.
///
/// When a certified commutativity oracle (core/Commut.h) is supplied, one
/// further refinement applies: PUSH x PUSH of *strongly commuting*
/// operations becomes independent.  The two orders append the same two
/// entries to G in either order; strong commutation makes every
/// denotation-based criterion insensitive to which order, and the
/// explorer's configuration key renders G in the commutativity quotient's
/// canonical order (PushPullMachine::configKey with the oracle), so both
/// orders reach the *same* canonical configuration — exactly the diamond
/// sleep sets require.  The refinement and the quotient key must be
/// enabled together (same oracle), never separately.
///
/// Validity is cross-checked by tests/reduction_test.cpp, which executes
/// claimed-independent pairs in both orders from fuzzed configurations and
/// compares the resulting interned configuration StateIds.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SIM_REDUCTION_H
#define PUSHPULL_SIM_REDUCTION_H

#include "core/Commut.h"
#include "core/Op.h"
#include "lang/Ast.h"
#include "support/Arena.h"
#include "support/SmallVec.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pushpull {

class PushPullMachine;

/// Reduction regime of one exploration.  Each mode is proven
/// observation-equivalent to None by the tests/reduction_test.cpp battery.
enum class Reduction {
  /// Full enumeration (the PR 1 behaviour).
  None,
  /// Sleep sets: skip re-exploration of commuted firing pairs.  Visits the
  /// same configurations as None (sleep sets prune transitions, never
  /// states) with strictly fewer rule applications.
  Sleep,
  /// Sleep sets plus persistent-set restriction (BEGIN-priority: an idle
  /// thread's guarded begin is a singleton persistent set).  May visit
  /// strictly fewer configurations; reaches every quiescent terminal.
  Persistent,
  /// Persistent plus transaction-id symmetry: configurations are
  /// canonicalized under renaming of threads with identical programs
  /// before the visited-map lookup.
  PersistentSymmetry,
};

std::string toString(Reduction R);

/// Parse a pprun-style mode name: "none", "sleep", "persistent",
/// "symmetry" / "persistent+symmetry".  Returns false on junk.
bool reductionFromString(const std::string &S, Reduction &Out);

/// Every name reductionFromString takes, in that order.
const std::vector<std::string> &reductionNames();

/// Which rules a reduction mode enables.
inline bool usesSleepSets(Reduction R) { return R != Reduction::None; }
inline bool usesPersistentSets(Reduction R) {
  return R == Reduction::Persistent || R == Reduction::PersistentSymmetry;
}
inline bool usesSymmetry(Reduction R) {
  return R == Reduction::PersistentSymmetry;
}

/// The firing alphabet: the seven Figure 5 rules plus the guarded BEGIN
/// structural reduction (which the explorer enumerates like a rule).
enum class FiringKind : uint8_t {
  Begin,
  App,
  UnApp,
  Push,
  UnPush,
  Pull,
  UnPull,
  Commit,
};

std::string toString(FiringKind K);

/// Canonical identity of one candidate rule firing at a configuration:
/// thread, rule, and the rule's operand indices (APP step/completion, local
/// log index, global log index).  Identities are stable across firings
/// *independent* of them — no independent firing reorders another thread's
/// local log or removes/permutes global entries — which is what lets sleep
/// sets carry firings across configurations.
struct Firing {
  TxId Tid = 0;
  FiringKind Kind = FiringKind::Begin;
  uint32_t A = 0; ///< APP StepIdx / local-log index / global-log index.
  uint32_t B = 0; ///< APP CompIdx.

  bool operator==(const Firing &O) const {
    return Tid == O.Tid && Kind == O.Kind && A == O.A && B == O.B;
  }
  bool operator<(const Firing &O) const {
    if (Tid != O.Tid)
      return Tid < O.Tid;
    if (Kind != O.Kind)
      return Kind < O.Kind;
    if (A != O.A)
      return A < O.A;
    return B < O.B;
  }

  std::string toString() const;
};

/// Conservative footprint of one firing, derived from the rule's criterion
/// footprint (core/Machine.cpp ruleFootprint) plus the entry-wise PULL
/// refinement.
struct FiringFootprint {
  /// The rule's criteria consult the shared log G.
  bool ReadsG = false;
  /// The rule's mutation appends to / removes from / reflags G.
  bool WritesG = false;
  /// PULL only: owner and committedness of the pulled entry, for the
  /// PULL x CMT refinement.
  TxId PullOwner = 0;
  bool PullCommitted = false;
  /// PUSH only: the interned key (StateTable::opKey) of the operation the
  /// push would publish, for the commutativity-oracle PUSH x PUSH
  /// refinement.  0 (a valid key) when no oracle is in play — the field is
  /// only consulted when a DB is passed to independentFirings.
  OpKeyId OpKey = 0;

  bool local() const { return !ReadsG && !WritesG; }
};

/// One enumerated candidate: a firing plus its footprint.
struct Candidate {
  Firing F;
  FiringFootprint FP;
};

/// The static independence relation (see the file comment).  Sound for
/// both sleep sets (diamond: both orders applicable and reach the same
/// canonical configuration) and the persistent-set argument.  \p DB, when
/// non-null, additionally makes cross-thread PUSH x PUSH of strongly
/// commuting operations independent; callers must then also key the
/// visited map with the same oracle's G-order quotient.
bool independentFirings(const Candidate &A, const Candidate &B,
                        const CommutativityOracle *DB = nullptr);

/// Execute \p F on \p M.  Returns true iff the rule applied (the firing
/// was enabled under the machine's validation regime).
bool applyFiring(PushPullMachine &M, const Firing &F);

/// A sleep set: firings already explored in a sibling branch whose
/// re-exploration here would only re-derive commuted interleavings.
/// Represented as a small sorted vector of candidates (footprints ride
/// along because surviving a step requires an independence check against
/// the fired candidate).  Sleep sets ride on every explorer work item and
/// visited-map entry; the inline capacity keeps the common few-member set
/// off the heap.
class SleepSet {
public:
  using Storage = SmallVec<Candidate, 8>;

  bool empty() const { return Members.empty(); }
  size_t size() const { return Members.size(); }
  const Storage &members() const { return Members; }

  bool contains(const Firing &F) const;
  void insert(const Candidate &C);

  /// The members that survive firing \p Fired: those independent of it
  /// (under \p DB's refinement when non-null).
  SleepSet survivorsAfter(const Candidate &Fired,
                          const CommutativityOracle *DB = nullptr) const;

  /// Is every member of \p O also a member of this set?  (By firing
  /// identity.)  A revisit whose sleep set is a superset of the stored one
  /// explores nothing the stored visit did not.
  bool supersetOf(const SleepSet &O) const;

  /// Intersect in place with \p O (by firing identity).  Stored on a
  /// visited configuration after a re-exploration so that only the
  /// transitions pruned by *every* visit stay pruned.
  void intersectWith(const SleepSet &O);

  /// This set with thread ids rewritten through \p LabelOf (firing tids
  /// and PULL-footprint owners) and re-sorted.  The symmetry reduction
  /// expresses sleep sets in the canonical labeling before visited-map
  /// store/compare, so subsumption checks compare like with like.
  SleepSet relabeled(const std::vector<TxId> &LabelOf) const;

  /// This set with PULL global-log indices rewritten from raw positions to
  /// canonical positions under \p Order (the configKey G-order quotient:
  /// Order[canonical] = raw), and re-sorted.  Like relabeled(), applied at
  /// the visited-map boundary when a commutativity oracle reorders the G
  /// section: two visitors that merge on a canonical key agree on the
  /// canonical position of every G entry, not on raw positions.  Sleep
  /// sets that travel down edges stay in raw space (raw identities are
  /// stable across independent firings; canonical positions are not).
  SleepSet reindexedG(const SmallVec<uint32_t, 16> &Order) const;

private:
  Storage Members;
};

/// All thread relabelings that permute identical thread programs among
/// themselves: the product of one symmetric group per class of threads
/// with textually identical transaction sequences.  Index = old tid,
/// value = new label.  The identity is always first; the group is
/// truncated at \p MaxPerms (canonicalization by a minimum over any fixed
/// subset containing the identity is still sound — two configurations
/// merge only if some group element maps one to the other).
std::vector<std::vector<TxId>>
symmetryGroup(const std::vector<std::vector<CodePtr>> &Programs,
              size_t MaxPerms = 120);

/// Persistent-set restriction, BEGIN-priority form: if some thread is idle
/// with pending transactions, its guarded BEGIN alone is a persistent set —
/// while a thread is outside a transaction no rule of any other thread can
/// enable, disable, or conflict with any firing of this thread (every
/// non-BEGIN rule requires InTx, BEGIN's guard reads only the thread's own
/// state, and BEGIN's footprint is thread-local), so the Godefroid
/// persistence condition holds for the singleton.  Restricts \p Cands to
/// the lowest such thread's BEGIN and returns the number of candidates
/// dropped; returns 0 (leaving Cands untouched) when no restriction
/// applies.  For threads *inside* a transaction no sound static singleton
/// exists: another thread's PUSH can enable a new PULL for this thread,
/// and that PULL is same-thread-dependent with every local firing — see
/// DESIGN.md section 10.  Operates on the explorer's arena-backed
/// candidate scratch (see sim/Explorer.cpp expandReduced).
size_t restrictToPersistent(ArenaVec<Candidate> &Cands);

} // namespace pushpull

#endif // PUSHPULL_SIM_REDUCTION_H

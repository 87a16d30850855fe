//===- core/Mover.h - Executable Definition 4.1 -----------------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lipton left-movers over logs, Definition 4.1:
///
///     op1 <| op2  ==  forall l.  l.op1.op2  =<  l.op2.op1
///
/// Following the paper's mnemonic (Section 5.1): the order of operations in
/// "op1 <| op2" is their order in the log on the LEFT of =< (the real,
/// interleaved log); the right-hand log is the hypothetical reordering the
/// atomic machine would produce.  Thus:
///
///  * PUSH criterion (i) — "op can move to the left of every unpushed local
///    op u" — is leftMover(op, u);
///  * PUSH criterion (ii) — "every uncommitted op x of another transaction
///    can move to the right of op" — is leftMover(x, op);
///  * PULL criterion (iii) — "everything done locally can move to the right
///    of the pulled op" — is leftMover(x, op) for each own x.
///
/// Executable form: the universal quantification over logs l becomes a
/// quantification over the *reachable denotations* of the specification
/// (the machine only ever needs moverness at reachable logs).  That
/// probe-closed reachable family is enumerated once per checker,
/// breadth-first under the probe alphabet with the discovery edge of every
/// member, and stops at exactly MoverLimits::MaxReachableSets members; it
/// is exact only when the frontier drains within that bound.  The family is
/// the one quantification domain of every commutation check: the semantic
/// mover check below runs the precongruence engine at each member, the
/// strong-commutation certificates of analysis/Commutativity.h sweep it,
/// and the scenario linter reads its member states.  A spec's algebraic
/// leftMoverHint short-circuits the semantic check when it has an opinion
/// (boosting's "different keys commute").
///
/// Both verdicts are functions of the operations' interned (Call, Result)
/// keys, so one memo per checker holds them per ordered (OpKeyId, OpKeyId)
/// pair — a per-operation-pair conflict table filled on demand: the rule
/// guards' millionth "can x move right of op" is one probe of a flat
/// table, never another hint simulation.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_CORE_MOVER_H
#define PUSHPULL_CORE_MOVER_H

#include "core/Precongruence.h"
#include "core/Spec.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pushpull {

/// Bounds for reachable-denotation enumeration.
struct MoverLimits {
  /// Maximum number of distinct reachable state sets to enumerate.  The
  /// enumeration is exact only when the frontier drains within the bound.
  size_t MaxReachableSets = 4096;
};

/// The probe-closed reachable family of denotations: every state set
/// reachable from the initial denotation under a sequence of probe
/// operations, in breadth-first discovery order.  Sets[0] is the initial
/// denotation; Parent/ParentOp label the discovery edge of every other
/// member, so each member has a minimal witness prefix.
struct ReachableFamily {
  std::vector<StateSetId> Sets;
  std::vector<int32_t> Parent;    ///< Index into Sets; -1 for the root.
  std::vector<uint32_t> ParentOp; ///< Probe index of the discovery edge.
  /// The frontier drained within the bound: the family is the whole
  /// reachable space and sweeps over it are proofs, not samples.
  bool Exact = false;
  /// Sets sorted ascending, built once when the family is exact (null
  /// otherwise) and shared by every StrongDiamond certificate over it.
  std::shared_ptr<const std::vector<StateSetId>> Sorted;
};

/// The minimal probe prefix (by BFS discovery) denoting F.Sets[\p Index].
std::vector<Operation> witnessPrefix(const ReachableFamily &F, size_t Index,
                                     const std::vector<Operation> &Probes);

/// Decision procedure for the left-mover relation, with memoization.
class MoverChecker {
public:
  MoverChecker(const SequentialSpec &Spec, MoverLimits Limits = {},
               PrecongruenceLimits PreLimits = {});

  /// Definition 4.1: may a real log ...A.B... be reordered (on the atomic
  /// side) to ...B.A...?  Consults the spec's hint first, then decides
  /// semantically over all reachable denotations; the verdict is memoized
  /// per ordered pair of operation keys.
  Tri leftMover(const Operation &A, const Operation &B);

  /// Force the semantic check (ignore hints) — used by tests that
  /// cross-validate hints, and by the E8 ablation bench.  When the family
  /// is not exact, a Yes is downgraded to Unknown.
  Tri leftMoverSemantic(const Operation &A, const Operation &B);

  /// The probe-closed reachable family, enumerated on first use.  Members
  /// past MoverLimits::MaxReachableSets are never added; Exact is set only
  /// when the frontier drains within the bound.  The reference is stable
  /// for the checker's lifetime.
  const ReachableFamily &family();

  /// Semantic decisions (leftMoverSemantic, or leftMover after the hint
  /// had no opinion) served from the memo vs computed.  Verdicts leftMover
  /// serves from the memo count in neither.
  uint64_t memoHits() const { return MemoHits; }
  uint64_t memoMisses() const { return MemoMisses; }

  /// Reachable sets enumerated so far, without forcing the enumeration
  /// (0 when the family was never asked for).  For stats reporting.
  size_t reachableComputedCount() const {
    return FamilyComputed ? Fam.Sets.size() : 0;
  }

  const MoverLimits &limits() const { return Limits; }

  PrecongruenceChecker &precongruence() { return Pre; }
  const PrecongruenceChecker &precongruence() const { return Pre; }

private:
  const SequentialSpec &Spec;
  MoverLimits Limits;
  PrecongruenceChecker Pre;

  bool FamilyComputed = false;
  ReachableFamily Fam;

  Tri semantic(const Operation &A, const Operation &B, OpKeyId KA,
               OpKeyId KB);

  /// One ordered pair's verdicts, each stored as 1 + Tri, 0 while unknown:
  /// leftMover's final one (hint, else semantic) and leftMoverSemantic's.
  struct MemoSlot {
    uint64_t Pair = EmptyPair;
    uint8_t Final = 0;
    uint8_t Semantic = 0;
  };
  /// No pair of interned keys packs to this.
  static constexpr uint64_t EmptyPair = ~uint64_t(0);

  /// The slot of (\p KA, \p KB), inserted empty if absent.  The reference
  /// is valid until the next insertion of a new pair.
  MemoSlot &memoSlot(OpKeyId KA, OpKeyId KB);

  /// The memo: (OpKeyId of A << 32 | OpKeyId of B), open addressing over a
  /// power-of-two slot array probed linearly and grown at 3/4 load.  Empty
  /// until the first query, so a checker built per fuzz case allocates
  /// nothing it does not use.  Moverness depends on the call and its
  /// result, never on the id or the thread stacks, so the interned
  /// denotation keys are exactly the right memo key.
  std::vector<MemoSlot> Memo;
  size_t MemoUsed = 0;
  uint64_t MemoHits = 0, MemoMisses = 0;
};

} // namespace pushpull

#endif // PUSHPULL_CORE_MOVER_H

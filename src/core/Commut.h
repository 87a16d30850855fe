//===- core/Commut.h - Strong-commutation oracle and G-order quotient -*- C++
//-*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface between the core machine and a *certified* static
/// commutativity table (analysis/MoverTable.h), plus the global-log order
/// quotient it induces.
///
/// Definition 4.1's mover relation is a precongruence statement; the
/// quotient below needs the strictly stronger *strong commutation* of two
/// operations A, B:
///
///   forall reachable S:   [[S.A.B]] = [[S.B.A]]   (state-set equality)
///   and  [[S.A]] != {} /\ [[S.B]] != {}  ==>  [[S.A.B]] != {}
///
/// quantified over the exact probe-closed reachable family of denotations.
/// Set equality (not mere precongruence) makes every log context that
/// embeds A and B adjacently denote identically under either order, and
/// the enabledness clause keeps every rule guard (allowed-ness is
/// denotation non-emptiness) insensitive to the order.  An oracle answers
/// "do these two interned op keys strongly commute"; the only shipped
/// implementation backs the answer with a machine-checked certificate
/// (analysis/MoverTable.h).
///
/// canonicalGOrder is the lexicographic trace normal form of a global log
/// under the independence relation "different owners and strongly
/// commuting ops": repeatedly emit, among the entries with no remaining
/// dependent predecessor, the one with the smallest (opKey, kind, owner)
/// label.  Two global logs that differ only by swaps of adjacent
/// independent entries normalize to the same label sequence, so rendering
/// a configuration key in this order merges configurations the quotient
/// identifies.  The normal form is canonical per equivalence class: it is
/// the unique lexicographically least linear extension of the dependence
/// partial order, and label ties can only occur between same-owner entries
/// (owner is part of the label), which are always dependent and hence keep
/// their class-invariant relative order.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_CORE_COMMUT_H
#define PUSHPULL_CORE_COMMUT_H

#include "core/Spec.h"
#include "support/SmallVec.h"

#include <cstddef>
#include <cstdint>

namespace pushpull {

/// Abstract strong-commutation oracle over interned operation keys.
/// Implementations must be *sound*: a true answer must hold for every
/// reachable denotation.  Unknown keys must answer false.
class CommutativityOracle {
public:
  virtual ~CommutativityOracle() = default;

  /// Do the operations behind keys \p A and \p B strongly commute (see
  /// the file comment)?  Symmetric; false is always a safe answer.
  virtual bool stronglyCommute(OpKeyId A, OpKeyId B) const = 0;

  /// Observability counters (sim/Stats CommutTableHits/Misses/CertChecks).
  /// A "hit" is a query answered true (a refinement actually applied), a
  /// "miss" a query answered false; cert checks count independent
  /// certificate verifications performed.
  /// \{
  virtual uint64_t tableHits() const { return 0; }
  virtual uint64_t tableMisses() const { return 0; }
  virtual uint64_t certChecks() const { return 0; }
  /// \}
};

/// One global-log entry as the configuration key renders it: interned op
/// key, committedness flag ('C'/'U'), and the (possibly relabeled) owner.
struct GKeyView {
  uint32_t OpKey = 0;
  char Kind = 'U';
  uint32_t OwnerLabel = 0;
};

/// Compute the canonical order of \p N global-log entries under \p DB's
/// strong-commutation relation (see the file comment).  \p OrderOut maps
/// canonical position -> original index; it is always a permutation of
/// [0, N).  O(N^2) oracle queries worst case; N is a global-log length.
void canonicalGOrder(const GKeyView *Entries, size_t N,
                     const CommutativityOracle &DB,
                     SmallVec<uint32_t, 16> &OrderOut);

} // namespace pushpull

#endif // PUSHPULL_CORE_COMMUT_H

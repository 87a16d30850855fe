//===- core/Log.h - Local and global operation logs -------------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PUSH/PULL model has no concrete state, only logs (Section 4):
///
///  * a per-thread local log  L : list (op x l)  with
///      l ::= pld | npshd c | pshd c
///    where the npshd/pshd flags save the code that was active when the
///    entry was created (so the transaction can rewind), and pld marks
///    operations pulled in from other transactions;
///
///  * a shared global log  G : list (op x g)  with  g ::= gUCmt | gCmt.
///
/// Every entry also carries the interned denotation of the log prefix that
/// ends at it (Prefix), so the machine reads [[L]] and [[G]] — the
/// denotations Figure 5's guards consult — instead of re-folding the log
/// for every guard.  The machine keeps the prefixes current: appends set
/// the new entry's, removals and re-insertions re-fold from the changed
/// index, and truncations and flag flips change none.
///
/// This file also provides the log combinators the rules and invariants are
/// phrased with: the projections |L|_l and |G|_g, difference G \ L,
/// containment L c= G, ordered intersection G n |L|_pshd, and the commit
/// transformer cmt(G1, L1, G2).  All membership is by operation id
/// ("notations are lifted to lists where equality is given by ids").
///
/// Both logs are backed by refcounted copy-on-write chunk chains
/// (support/Cow.h): copying a log, inside a whole-machine copy, is one
/// atomic increment, and appends go in place whenever the owning machine
/// is the only one referencing the head chunk (the scheduler, the
/// explorer and every dry run, which fire in place and roll back).
/// entries() returns the log itself, which iterates like the vector it
/// used to be, so combinators and call sites read naturally.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_CORE_LOG_H
#define PUSHPULL_CORE_LOG_H

#include "core/Op.h"
#include "core/Spec.h"
#include "lang/Ast.h"
#include "support/Cow.h"

#include <vector>

namespace pushpull {

/// Local-log flag discriminator: l ::= pld | npshd c | pshd c.
enum class LocalKind {
  NotPushed, ///< npshd c: applied locally, not yet in the global log.
  Pushed,    ///< pshd c: applied locally and present in the global log.
  Pulled,    ///< pld: another transaction's effect, pulled into our view.
};

std::string toString(LocalKind K);

/// One entry of a local log.
struct LocalEntry {
  Operation Op;
  LocalKind Kind = LocalKind::NotPushed;
  /// [[L]] of the local log up to and including this entry, interned in
  /// the owning machine's spec table (see the file comment).
  StateSetId Prefix = StateTable::EmptySetId;
  /// The code that was active when this entry was created; meaningful for
  /// npshd/pshd entries (the `c` of `npshd c`), null for pld.  UNAPP uses
  /// it to rewind.
  CodePtr SavedCode;
};

/// A thread's local log L.
class LocalLog {
public:
  using const_iterator = CowChain<LocalEntry, 4>::const_iterator;

  bool empty() const { return Chain.empty(); }
  size_t size() const { return Chain.size(); }
  const LocalEntry &operator[](size_t I) const { return Chain[I]; }
  const_iterator begin() const { return Chain.begin(); }
  const_iterator end() const { return Chain.end(); }
  /// The entries as an iterable range (the log itself; historically this
  /// returned the backing vector).
  const LocalLog &entries() const { return *this; }

  void append(LocalEntry E) { Chain.push(std::move(E)); }
  void truncate(size_t NewSize) { Chain.truncate(NewSize); }
  void removeAt(size_t I) { Chain.removeAt(I); }
  void insertAt(size_t I, LocalEntry E) { Chain.insertAt(I, std::move(E)); }
  void setKind(size_t I, LocalKind K) { Chain.mutableAt(I).Kind = K; }
  void setPrefix(size_t I, StateSetId S) { Chain.mutableAt(I).Prefix = S; }

  /// [[L]]: the last entry's prefix denotation, or \p Initial when empty.
  StateSetId denotation(StateSetId Initial) const {
    return empty() ? Initial : Chain[size() - 1].Prefix;
  }

  /// Index of the entry with operation id \p Id, or npos.
  size_t indexOf(OpId Id) const;
  static constexpr size_t npos = static_cast<size_t>(-1);

  /// Membership by id (the paper's `op in L`).
  bool contains(OpId Id) const { return indexOf(Id) != npos; }

  /// All operations, in local-log order (the transaction's local view).
  std::vector<Operation> ops() const;

  /// All operations except the entry at index \p Omit.
  std::vector<Operation> opsOmitting(size_t Omit) const;

  /// Projection |L|_k: operations whose flag is \p K, in log order.
  std::vector<Operation> project(LocalKind K) const;

  /// The transaction's own operations (npshd or pshd, not pld), in order.
  std::vector<Operation> ownOps() const;

  /// Indices of entries with flag \p K, inline for the short logs the
  /// explorer's candidate enumeration and the engines' push loops scan.
  using IndexList = SmallVec<size_t, 8>;
  IndexList indicesOf(LocalKind K) const;

  std::string toString() const;

private:
  CowChain<LocalEntry, 4> Chain;
};

/// Global-log flag: g ::= gUCmt | gCmt.
enum class GlobalKind {
  Uncommitted, ///< gUCmt
  Committed,   ///< gCmt
};

std::string toString(GlobalKind K);

/// One entry of the shared log.
struct GlobalEntry {
  Operation Op;
  GlobalKind Kind = GlobalKind::Uncommitted;
  /// The thread that pushed this operation.  Not part of the paper's
  /// formal state (the model identifies ownership via local logs); carried
  /// for diagnostics and for the CMT criterion-(iii) check.
  TxId Owner = 0;
  /// [[G]] up to and including this entry (see LocalEntry::Prefix).
  StateSetId Prefix = StateTable::EmptySetId;
};

/// The shared log G.
class GlobalLog {
public:
  using const_iterator = CowChain<GlobalEntry, 4>::const_iterator;

  bool empty() const { return Chain.empty(); }
  size_t size() const { return Chain.size(); }
  const GlobalEntry &operator[](size_t I) const { return Chain[I]; }
  const_iterator begin() const { return Chain.begin(); }
  const_iterator end() const { return Chain.end(); }
  /// The entries as an iterable range (see LocalLog::entries).
  const GlobalLog &entries() const { return *this; }

  void append(GlobalEntry E) { Chain.push(std::move(E)); }
  void truncate(size_t NewSize) { Chain.truncate(NewSize); }
  void removeAt(size_t I) { Chain.removeAt(I); }
  void insertAt(size_t I, GlobalEntry E) { Chain.insertAt(I, std::move(E)); }
  void setKind(size_t I, GlobalKind K) { Chain.mutableAt(I).Kind = K; }
  void setPrefix(size_t I, StateSetId S) { Chain.mutableAt(I).Prefix = S; }

  /// [[G]]: the last entry's prefix denotation, or \p Initial when empty.
  StateSetId denotation(StateSetId Initial) const {
    return empty() ? Initial : Chain[size() - 1].Prefix;
  }

  size_t indexOf(OpId Id) const;
  static constexpr size_t npos = static_cast<size_t>(-1);
  bool contains(OpId Id) const { return indexOf(Id) != npos; }

  /// All operations in shared-log order.
  std::vector<Operation> ops() const;

  /// Projection |G|_k.
  std::vector<Operation> project(GlobalKind K) const;

  /// G \ L: entries whose op does not occur in \p L (order preserved).
  std::vector<Operation> minus(const LocalLog &L) const;

  /// Uncommitted operations not belonging to \p L (used for diagnostics).
  std::vector<Operation> uncommittedNotIn(const LocalLog &L) const;

  /// Uncommitted operations not *owned* by thread \p T — the
  /// quantification of PUSH criterion (ii) ("except those due to the
  /// current transaction").  Ownership, not local-log membership: an
  /// operation another transaction pushed and we merely pulled still
  /// constrains our publications, which is what preserves I_slideR
  /// (Lemma 5.8) for its owner.
  std::vector<Operation> uncommittedNotOwnedBy(TxId T) const;

  /// L c= G: every operation of \p L occurs in G.
  bool containsAll(const LocalLog &L) const;

  /// cmt(G, L, G'): mark every entry whose op occurs in \p L as committed.
  /// (CMT criterion (iv); pld entries in L are already committed by CMT
  /// criterion (iii), so re-marking them is a no-op.)  The index of each
  /// entry actually flipped is appended to \p Flipped when it is non-null.
  void commitOwned(const LocalLog &L,
                   SmallVec<uint32_t, 4> *Flipped = nullptr);

  std::string toString() const;

private:
  CowChain<GlobalEntry, 4> Chain;
};

} // namespace pushpull

#endif // PUSHPULL_CORE_LOG_H

//===- core/Op.h - Operation records and thread stacks ----------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operation records, exactly as in Section 3 of the paper: an operation
/// op = <m, sigma1, sigma2, id> is a method name m together with a
/// thread-local pre-stack (method arguments), a thread-local post-stack
/// (return values), and a globally unique identifier.  Equality of
/// operations throughout the model is equality of ids.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_CORE_OP_H
#define PUSHPULL_CORE_OP_H

#include "support/SmallVec.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pushpull {

/// Values stored in stacks and passed to/returned from methods.
using Value = int64_t;

/// Globally unique operation identifier (the paper's `id` with fresh(id)).
using OpId = uint64_t;

/// Thread identifier.
using TxId = unsigned;

/// A thread-local stack sigma: a finite map from variable names to values.
///
/// The paper threads sigma through both the programming language (method
/// arguments are read from it, results are bound into it) and the operation
/// records themselves.
///
/// Backed by a name-sorted small vector rather than a tree map: stacks are
/// tiny (a handful of short names) but copied constantly — every operation
/// record carries two — and with the first two bindings inline the common
/// copy allocates nothing at all.
class Stack {
public:
  using Entries = SmallVec<std::pair<std::string, Value>, 2>;

  Stack() = default;

  /// Look up \p Var; nullopt when unbound.
  std::optional<Value> get(const std::string &Var) const;

  /// Look up \p Var; asserts it is bound.
  Value getOrDie(const std::string &Var) const;

  /// Return a copy of this stack with \p Var bound to \p V.
  Stack bind(const std::string &Var, Value V) const;

  /// In-place bind.
  void set(const std::string &Var, Value V);

  bool operator==(const Stack &O) const { return Vars == O.Vars; }
  bool operator!=(const Stack &O) const { return !(*this == O); }

  bool empty() const { return Vars.empty(); }
  size_t size() const { return Vars.size(); }

  /// Canonical printable form, e.g. "[a->5, x->1]".
  std::string toString() const;

  /// Bindings sorted by name.
  const Entries &entries() const { return Vars; }

private:
  Entries Vars;
};

/// A fully resolved method call: the shared object it targets, the method
/// name, and concrete argument values.  This is the `m` of the paper once
/// the thread's stack has been consulted for arguments.
struct ResolvedCall {
  std::string Object; ///< Which shared object, e.g. "set" or "x".
  std::string Method; ///< Operation name, e.g. "add", "read", "write".
  std::vector<Value> Args;

  bool operator==(const ResolvedCall &O) const {
    return Object == O.Object && Method == O.Method && Args == O.Args;
  }
  bool operator!=(const ResolvedCall &O) const { return !(*this == O); }

  /// Printable form, e.g. "set.add(3)".
  std::string toString() const;
};

/// Memo slot for an id some StateTable interned for an immutable object:
/// an operation's denotation key (StateTable::opKey) or a code node's text
/// key (StateTable::codeKey).  The id depends only on fields fixed at
/// creation, so it can be computed once and carried with the object —
/// including through copies, which machines make constantly.  The slot is
/// tagged with the owning table's unique id (StateTable::id) so an object
/// that flows between specs can never alias another table's key space.
/// Tag and id are packed into one atomic word, making concurrent fills
/// safe (both write the identical value).
///
/// Contract: the cache follows (Call, Result) through Operation copies, so
/// code that *mutates* either field on a record that may already have been
/// interned must call reset() afterwards.  Engine code never does this — it
/// always fills freshly constructed records — but spec/test helpers that
/// recycle an Operation variable must.
class InternCache {
public:
  InternCache() = default;
  // noexcept, so the implicit moves of the records holding a slot stay
  // noexcept and vectors of them move rather than copy when they grow.
  InternCache(const InternCache &O) noexcept
      : Packed(O.Packed.load(std::memory_order_relaxed)) {}
  InternCache &operator=(const InternCache &O) noexcept {
    Packed.store(O.Packed.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  /// \returns true and sets \p Out if an id cached by table \p TableId is
  /// present.  Table ids are nonzero, so the empty slot never matches.
  bool lookup(uint32_t TableId, uint32_t &Out) const {
    uint64_t P = Packed.load(std::memory_order_relaxed);
    if (static_cast<uint32_t>(P >> 32) != TableId)
      return false;
    Out = static_cast<uint32_t>(P);
    return true;
  }

  void store(uint32_t TableId, uint32_t Key) const {
    Packed.store((static_cast<uint64_t>(TableId) << 32) | Key,
                 std::memory_order_relaxed);
  }

  /// Drop the cached key.  Required after mutating the fields the key is
  /// derived from (see the class comment).
  void reset() { Packed.store(0, std::memory_order_relaxed); }

private:
  mutable std::atomic<uint64_t> Packed{0};
};

/// An operation record op = <m, sigma1, sigma2, id>.
///
/// \c Call is the resolved method; \c Pre is the thread-local stack at the
/// moment of application (the paper's sigma1, holding method arguments);
/// \c Post is the stack afterwards (sigma2, holding any bound result).
/// By convention a method's return value, when it has a result variable,
/// appears in \c Post under that variable; \c result() extracts the raw
/// return value independent of binding.
struct Operation {
  ResolvedCall Call;
  Stack Pre;
  Stack Post;
  /// Raw return value of the call, if the method returns one.  Recorded
  /// separately from Post so specs can judge allowed-ness even when the
  /// program discards the result.
  std::optional<Value> Result;
  OpId Id = 0;
  /// Cached interned denotation key; purely a memo, not part of the record
  /// (Call and Result, which determine it, never change after creation).
  InternCache KeyCache;

  /// Identity in the model is id equality (Section 4: "Notations are all
  /// lifted to lists where equality is given by ids").
  bool sameIdAs(const Operation &O) const { return Id == O.Id; }

  /// Printable form, e.g. "#7:set.add(3)=1".
  std::string toString() const;
};

/// Monotonic source of fresh operation ids (the paper's fresh(id)).
class OpIdSource {
public:
  OpId fresh() { return ++Last; }
  OpId lastIssued() const { return Last; }

  /// Advance the sequence past \p Used.  The analysis install hook builds
  /// operation records outside the machine and must keep future fresh ids
  /// disjoint from them.
  void reservePast(OpId Used) {
    if (Used > Last)
      Last = Used;
  }

private:
  OpId Last = 0;
};

} // namespace pushpull

#endif // PUSHPULL_CORE_OP_H

//===- core/Spec.h - Sequential specifications ------------------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameter 3.1 of the paper: the sequential specification is a
/// prefix-closed predicate `allowed l` on operation logs.  Following the
/// paper's suggestion, allowed is induced by a denotation of operations as
/// relations on states:
///
///   [[l . op]] = [[l]] ; [[op]]      [[eps]] = I      allowed l = ([[l]] != {})
///
/// A SequentialSpec supplies the initial states I and per-state successor
/// computation; the denotation of a log is then a *state set*, and allowed
/// is non-emptiness.  Specs also supply:
///
///  * completions: which results a method call may return from a state
///    (used by APP and by the atomic machine's big-step reduction);
///  * a finite probe alphabet for the executable coinductive checks
///    (precongruence, Definition 3.1; left-mover, Definition 4.1).  The
///    spec computes it once, with its interned keys, on first use
///    (probes()/probeKeys()), and every checker over the spec reads that
///    one copy;
///  * an optional algebraic left-mover hint (e.g. "operations on different
///    keys commute"), the executable form of the commutativity reasoning
///    transactional boosting performs with abstract locks.
///
/// States are canonically encoded as strings so that state sets can be
/// hashed and memoized by the fixpoint engines without the engines knowing
/// anything about the particular specification.
///
/// On top of the canonical encoding sits a hash-consing layer (StateTable):
/// every canonical state string is interned once into a dense StateId, and
/// every canonical state set into a dense StateSetId, so the fixpoint
/// engines (precongruence pair BFS, mover reachable enumeration, explorer
/// memoization) compare and hash plain integers instead of re-hashing
/// strings on every frontier insertion.  The table also memoizes the
/// denotation step itself — (StateSetId, op key) -> StateSetId — so the
/// same [[S ; op]] image is computed once and shared by every engine that
/// consults the spec.  The table is internally synchronized: the parallel
/// explorer's workers and the stress runtime's workers and checkers share
/// one spec (and thus one transition memo) across threads.  Its read path
/// — transition lookups and set-entry reads — is served from a small
/// per-thread cache, so threads that share a table do not contend on it.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_CORE_SPEC_H
#define PUSHPULL_CORE_SPEC_H

#include "core/Op.h"
#include "support/Tri.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pushpull {

/// A canonical, spec-chosen encoding of one abstract state.
using State = std::string;

/// A finite set of states: the denotation of an operation log.
///
/// Kept sorted and deduplicated so that equal sets have equal keys; the
/// precongruence fixpoint memoizes on \c key().
class StateSet {
public:
  StateSet() = default;

  /// Build from an arbitrary vector (sorts and dedups).
  static StateSet of(std::vector<State> States);

  bool empty() const { return States.empty(); }
  size_t size() const { return States.size(); }
  const std::vector<State> &states() const { return States; }

  bool operator==(const StateSet &O) const { return States == O.States; }
  bool operator!=(const StateSet &O) const { return !(*this == O); }

  /// Is this set a subset of \p O?  (Both are sorted.)  Subset inclusion
  /// of denotations implies log precongruence — the relation
  /// {(S1,S2) | S1 c= S2} is closed under the rule of Definition 3.1
  /// because images preserve inclusion — so checkers use this as an exact
  /// shortcut.
  bool subsetOf(const StateSet &O) const;

  /// Canonical hashable key (states joined with an unprintable separator).
  std::string key() const;

  std::string toString() const;

private:
  std::vector<State> States;
};

/// Dense identifier of an interned canonical state string.
using StateId = uint32_t;

/// Dense identifier of an interned canonical state set.  Two StateSetIds
/// from the same StateTable are equal iff the underlying StateSets are
/// equal, so set equality/hashing degrades to an integer compare.
using StateSetId = uint32_t;

/// Dense identifier of an interned operation denotation key.  Denotation
/// (and moverness) depend only on an operation's resolved call and result,
/// never on its id or the thread stacks, so operations with the same
/// (Call, Result) share one OpKeyId.
using OpKeyId = uint32_t;

/// Dense identifier of an interned byte string: a code node's printed text
/// or one committed-history record (see PushPullMachine::configKey).  Two
/// TextIds from the same StateTable are equal iff the texts are.
using TextId = uint32_t;

class Code;

/// Counters describing how effective the interning/memoization layer is.
struct InternStats {
  uint64_t StatesInterned = 0;
  uint64_t StateSetsInterned = 0;
  uint64_t OpKeysInterned = 0;
  uint64_t TransitionMemoHits = 0;
  uint64_t TransitionMemoMisses = 0;

  double transitionHitRate() const {
    uint64_t Total = TransitionMemoHits + TransitionMemoMisses;
    return Total ? static_cast<double>(TransitionMemoHits) /
                       static_cast<double>(Total)
                 : 0.0;
  }
};

/// Hash-consing table for one specification: canonical states, canonical
/// state sets, operation keys, configuration-key texts, and the transition
/// memo (StateSetId, OpKeyId) -> StateSetId.
///
/// Internally synchronized (shared_mutex for the maps, atomics for the
/// counters) so that concurrent threads can share one spec.  Interned
/// entries are immutable once published and stored behind stable pointers,
/// so references returned by \c setOf stay valid forever.
///
/// The hot read path (lookupTransition, setOf) first consults a
/// per-thread direct-mapped cache tagged with the table's id, filled from
/// shared-map hits and from recordTransition.  It needs no
/// invalidation: a cached entry is a copy of an immutable one, and table
/// ids are never reused, so a destroyed table's entries can never match a
/// later table.  The memo's hit/miss counts live in per-thread padded
/// slots, so they stay exact without a shared counter line.
class StateTable {
public:
  /// Id 0 is always the empty set.
  static constexpr StateSetId EmptySetId = 0;

  StateTable();
  StateTable(const StateTable &) = delete;
  StateTable &operator=(const StateTable &) = delete;

  /// Hash-cons one canonical state string.
  StateId internState(const State &S);

  /// Hash-cons a canonical (sorted, deduplicated) state set.
  StateSetId internSet(const StateSet &S);
  StateSetId internSet(StateSet &&S);

  /// The canonical set behind an id.  The reference is stable.
  const StateSet &setOf(StateSetId Id) const;

  /// The member state ids of a set, sorted by id.  The reference is stable.
  const std::vector<StateId> &membersOf(StateSetId Id) const;

  bool setEmpty(StateSetId Id) const { return Id == EmptySetId; }

  /// Is set \p A a subset of set \p B?  (Integer-vector inclusion.)
  bool subset(StateSetId A, StateSetId B) const;

  /// Intern the (Call, Result) denotation key of \p Op.
  OpKeyId opKey(const Operation &Op);

  /// Intern an arbitrary byte string.  Texts are interned by content,
  /// never by the identity of whatever rendered them.
  TextId textKey(std::string_view Text);

  /// textKey of \p C's printed form, memoized on the node: two separately
  /// parsed copies of one program share their ids.
  TextId codeKey(const Code &C);

  /// This table's nonzero tag for per-object InternCache slots.  Drawn
  /// from a process-wide counter, so it is never reused.
  uint32_t id() const { return TableId; }

  /// Transition memo: was [[S ; op]] computed before?
  bool lookupTransition(StateSetId S, OpKeyId Op, StateSetId &Out);
  void recordTransition(StateSetId S, OpKeyId Op, StateSetId Result);

  InternStats stats() const;

private:
  struct SetEntry {
    StateSet Canonical;
    std::vector<StateId> Members;
  };

  StateSetId internSorted(std::vector<StateId> Members, StateSet &&Canonical);

  /// Transition-memo counters of one thread (threads beyond CounterSlots
  /// share a slot, so updates stay atomic); stats() sums the slots.
  struct alignas(64) CounterSlot {
    std::atomic<uint64_t> Hits{0}, Misses{0};
  };
  static constexpr unsigned CounterSlots = 16;

  /// The calling thread's read cache (defined in Spec.cpp).
  struct ReadCache;
  static ReadCache &readCache();

  /// Nonzero id distinguishing this table in InternCache slots and
  /// per-thread read caches.  Drawn from a process-wide counter, so it is
  /// never reused (wrapping would take 2^32 tables).
  const uint32_t TableId;

  struct IdVecHash {
    size_t operator()(const std::vector<StateId> &V) const {
      // FNV-1a over the id words; ids are already well-distributed.
      uint64_t H = 1469598103934665603ull;
      for (StateId I : V) {
        H ^= I;
        H *= 1099511628211ull;
      }
      return static_cast<size_t>(H);
    }
  };

  mutable std::shared_mutex Mutex;
  std::unordered_map<std::string, StateId> StateIds;
  std::unordered_map<std::vector<StateId>, StateSetId, IdVecHash> SetIds;
  /// Indexed by StateSetId; unique_ptr gives entries stable addresses.
  std::vector<std::unique_ptr<SetEntry>> Sets;
  std::unordered_map<std::string, OpKeyId> OpKeys;
  /// Heterogeneous lookup, so a hit on a rendered view copies nothing.
  struct TextHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>{}(S);
    }
  };
  std::unordered_map<std::string, TextId, TextHash, std::equal_to<>> Texts;
  /// (StateSetId << 32 | OpKeyId) -> result StateSetId.
  std::unordered_map<uint64_t, StateSetId> Transitions;

  std::unique_ptr<CounterSlot[]> Counters;
};

/// One allowed way a method call can complete: the result it returns (if
/// the method returns one).
struct Completion {
  std::optional<Value> Result;

  bool operator==(const Completion &O) const { return Result == O.Result; }
};

/// Signature of one method of a sequential specification: the owning
/// object, the method name, the argument count, and whether calls return
/// a value.  This is the surface the .pp linter checks programs against
/// (unknown objects/methods, arity errors, result bindings on void
/// methods) without executing anything.
struct MethodSig {
  std::string Object;
  std::string Method;
  unsigned Arity = 0;
  bool HasResult = true;

  /// "obj.method/arity".
  std::string toString() const;
};

/// Abstract base for sequential specifications (Parameter 3.1).
class SequentialSpec {
public:
  SequentialSpec() = default;
  /// Copying a spec starts the copy with fresh caches: the interning
  /// table is per-instance memoization, not semantic state.
  SequentialSpec(const SequentialSpec &) {}
  SequentialSpec &operator=(const SequentialSpec &) { return *this; }
  virtual ~SequentialSpec();

  /// Short diagnostic name, e.g. "set(u=4)".
  virtual std::string name() const = 0;

  /// The initial states I.
  virtual std::vector<State> initialStates() const = 0;

  /// Successor states of \p S under the fully resolved operation \p Op
  /// (whose Result is fixed).  Empty means Op is not allowed at S.
  virtual std::vector<State> successors(const State &S,
                                        const Operation &Op) const = 0;

  /// Allowed completions of method call \p Call from state \p S.  Empty
  /// means the call is not allowed at S at all (specs where any call is
  /// always *enabled* simply always return at least one completion).
  virtual std::vector<Completion> completions(const State &S,
                                              const ResolvedCall &Call)
      const = 0;

  /// A finite probe alphabet of fully resolved operations.  The executable
  /// precongruence/left-mover checks quantify over this alphabet instead of
  /// over all operations; specs must make it complete enough to distinguish
  /// the states they can reach (tests cross-check this).  Read-only callers
  /// use probes(), which builds the alphabet once per spec.
  virtual std::vector<Operation> probeOps() const = 0;

  /// Optional algebraic mover hint for "\p A can move to the left of \p B"
  /// (Definition 4.1).  Tri::Unknown means "no opinion; fall back to the
  /// semantic check".  Hints must be *sound*: tests cross-validate them
  /// against the semantic decision procedure.  The keyed specs share one
  /// hint (spec/KeyedSpec.h) that runs the same per-key step as their
  /// successors; the default has no opinion.
  virtual Tri leftMoverHint(const Operation &A, const Operation &B) const;

  /// The method surface of this specification, for static checking.  The
  /// default derives it from probes() — one signature per distinct
  /// (object, method), arity from the probe's argument count, result-ness
  /// from whether any probe carries a Result — which is exact whenever the
  /// probe alphabet covers every method at its real arity.  The shipped
  /// specs override with their authoritative surfaces; the default serves
  /// test-local specs.
  virtual std::vector<MethodSig> methods() const;

  // -- Derived, non-virtual helpers ---------------------------------------

  /// The probe alphabet: probeOps(), computed once per spec on first use
  /// (thread-safe).  The reference is stable for the spec's lifetime.
  const std::vector<Operation> &probes() const;

  /// The interned denotation keys of probes(), index-aligned; computed
  /// with it.  The reference is stable for the spec's lifetime.
  const std::vector<OpKeyId> &probeKeys() const;

  /// The denotation of the empty log: the set of initial states.
  StateSet initial() const;

  /// [[S ; op]]: image of \p S under \p Op.  Routed through the interning
  /// table's transition memo, so repeated images are hash lookups.
  StateSet applyOp(const StateSet &S, const Operation &Op) const;

  /// [[l]] starting from the initial states.
  StateSet denote(const std::vector<Operation> &Log) const;

  /// [[l]] starting from \p From.
  StateSet denoteFrom(const StateSet &From,
                      const std::vector<Operation> &Log) const;

  /// allowed l  =  ([[l]] != {}).
  bool allowed(const std::vector<Operation> &Log) const;

  /// "l allows op"  =  allowed (l . op), evaluated incrementally from the
  /// already-denoted state set \p SOfLog.
  bool allowsFrom(const StateSet &SOfLog, const Operation &Op) const;

  /// Union of completions of \p Call over all states in \p S, deduplicated.
  /// A completion is allowed if *some* state admits it (allowed-ness is
  /// non-emptiness of the denotation).
  std::vector<Completion> completionsFrom(const StateSet &S,
                                          const ResolvedCall &Call) const;

  // -- Interned denotation (the hot-path form of the helpers above) --------
  //
  // Interning is representation only: setOf(applyOpId(internSet(S), op))
  // is always the same canonical StateSet that applyOp(S, op) returns.

  /// This spec's hash-consing table.  Mutable: a pure cache.
  StateTable &table() const { return Table; }

  /// Intern an already-canonical set.
  StateSetId internSet(const StateSet &S) const { return Table.internSet(S); }

  /// The canonical set behind an id (stable reference).
  const StateSet &setOf(StateSetId Id) const { return Table.setOf(Id); }

  /// Interned denotation of the empty log.
  StateSetId initialId() const;

  /// [[S ; op]] on interned sets, memoized in the transition memo.
  StateSetId applyOpId(StateSetId S, const Operation &Op) const;

  /// Same, with the operation's key already interned (lets search loops
  /// hoist the key computation out of the frontier loop).
  StateSetId applyOpId(StateSetId S, const Operation &Op, OpKeyId Key) const;

  /// [[l]] from \p From, on interned sets.
  StateSetId denoteFromId(StateSetId From,
                          const std::vector<Operation> &Log) const;

  /// [[l]] from the initial states, on interned sets.
  StateSetId denoteId(const std::vector<Operation> &Log) const;

  /// Interning/memoization counters for this spec.
  InternStats internStats() const { return Table.stats(); }

private:
  struct ProbeAlphabet {
    std::vector<Operation> Ops;
    std::vector<OpKeyId> Keys;
  };
  const ProbeAlphabet &probeAlphabet() const;

  mutable StateTable Table;
  mutable std::atomic<StateSetId> CachedInitial{NoInitial};
  static constexpr StateSetId NoInitial = 0xffffffff;
  mutable std::once_flag ProbesOnce;
  mutable ProbeAlphabet Probes;
};

} // namespace pushpull

#endif // PUSHPULL_CORE_SPEC_H

//===- core/Machine.h - The PUSH/PULL machine -------------------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PUSH/PULL machine of Section 4 (Figures 4, 5, 6).  Machine
/// configurations are (T, G): a list of threads {c, sigma, L} plus the
/// shared log G.  Threads reduce via the seven rules
///
///   APP     apply a next method locally (appends npshd to L)
///   UNAPP   rewind the latest unpushed application (restores code/stack)
///   PUSH    publish a local effect (npshd -> pshd; appended to G)
///   UNPUSH  recall a published effect (pshd -> npshd; removed from G)
///   PULL    view another transaction's published effect (appends pld)
///   UNPULL  discard a pulled effect
///   CMT     commit: flip all own G entries gUCmt -> gCmt, clear L
///
/// each guarded by the criteria of Figure 5, which this machine evaluates
/// mechanically (movers via MoverChecker, allowed-ness via the spec).  The
/// structural rules of Figure 6 (NONDETL/R, LOOP, SEMI, SEMISKIP) are
/// subsumed by using step()/fin() inside APP and CMT, exactly as the
/// paper's APP/CMT premises do.
///
/// A thread's program is a sequence of transactions (the paper's
/// well-formedness: every method occurs inside a transaction); beginTx
/// starts the next one, recording the rewind point otx = (original code,
/// original stack) that UNAPP chains back to and that the serializability
/// oracle replays.
///
/// Rule attempts never mutate state when rejected, so schedulers and the
/// exhaustive explorer may probe moves freely.  Applied ones can be taken
/// back: under an open mark() every BEGIN and applied rule records its
/// exact inverse on an undo trail, and rollbackTo() replays those inverses
/// newest first.  The sequential explorer, the engines' validation dry runs
/// and the static audits fire rules in place this way instead of on copies.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_CORE_MACHINE_H
#define PUSHPULL_CORE_MACHINE_H

#include "core/Commut.h"
#include "core/Criteria.h"
#include "core/Log.h"
#include "core/Mover.h"
#include "core/Spec.h"
#include "core/Trace.h"
#include "lang/StepFin.h"
#include "support/Arena.h"
#include "support/Cow.h"

#include <functional>
#include <string>
#include <vector>

namespace pushpull {

class PushPullMachine;

/// How strictly the machine checks each rule application.
enum class ValidationLevel {
  /// Structural checks only (flags, membership); the semantic criteria
  /// (movers, allowed-ness of G) are not evaluated.  For measuring
  /// validation overhead (E8) and for engines proven correct by
  /// construction.
  Trusting,
  /// Evaluate and enforce every criterion of Figure 5 (the default).
  Criteria,
  /// Criteria plus the Section 5.3 invariants (I_LG, I_slideR,
  /// I_localOrder, I_reorderPUSH) re-checked after every mutation.  Slow;
  /// for tests.
  Full,
};

/// Machine configuration knobs.
struct MachineConfig {
  ValidationLevel Level = ValidationLevel::Criteria;
  /// Enforce the criteria the paper marks gray ("not strictly necessary"):
  /// UNPUSH criterion (i) and PULL criterion (iii).
  bool EnforceGrayCriteria = true;
  /// Treat Tri::Unknown criterion verdicts as failures (sound default).
  bool UnknownIsFailure = true;
  /// Record the discharge bookkeeping nothing on the hot path reads: the
  /// audit log of every *applied* rule's full RuleResult (the
  /// machine-checked analogue of the paper's per-rule proof obligations),
  /// the *passing* criterion reports of rule attempts (failing reports are
  /// always kept — firstFailure() must work), and the per-event operation
  /// text in the trace.  Off by default and during exploration and
  /// fuzzing, where none of it is consumed; Scenario runs switch it on for
  /// their discharge logs.
  bool RecordAudit = false;
  /// Record a TraceEvent per applied rule.  The trace feeds the opacity
  /// classifier, scheduler statistics, and scenario reports; the explorer
  /// switches it off — it reads the trace only when printing a failing
  /// terminal, and the per-rule appends and rollbacks are pure overhead
  /// across millions of successor expansions.
  bool RecordTrace = true;
  /// Test-only fault injection: the criterion with exactly this
  /// paper-style name (e.g. "PUSH criterion (ii)") is reported as passing
  /// without being evaluated.  The differential fuzzer's shrinker test
  /// plants a known bug here and checks the harness finds and minimizes
  /// it.  Empty (no injection) in production.
  std::string DisabledCriterion;
  /// Observer invoked after every *applied* rule, once the configuration
  /// mutation is complete — including firings under a mark that are later
  /// rolled back (the engines' validation dry runs), which it sees in the
  /// configuration they fired in.  The machine passed in is the one that
  /// fired (copies carry the callback but pass themselves), so differential
  /// checkers can re-validate invariants after every rule firing without
  /// the hard-abort semantics of ValidationLevel::Full.  Rolling back calls
  /// it for nothing.
  std::function<void(const PushPullMachine &M, RuleKind K, TxId T)>
      OnRuleApplied;
};

/// One thread {c, sigma, L} plus its queued future transactions and the
/// otx rewind point of the transaction in progress.
struct ThreadState {
  TxId Tid = 0;
  /// Remaining code of the transaction in progress (undefined outside one).
  CodePtr Code;
  Stack Sigma;
  LocalLog L;
  /// otx: body and stack at the start of the in-progress transaction.
  CodePtr OrigCode;
  Stack OrigSigma;
  bool InTx = false;
  /// Transactions not yet begun, in program order.  Copy-on-write: machine
  /// copies share the queue; the rare mutations (BEGIN, dynamic queueing)
  /// clone it.
  CowVec<CodePtr> Pending;
  /// Number of CMTs this thread has performed.
  size_t Commits = 0;

  bool done() const { return !InTx && Pending.empty(); }
};

/// A committed transaction, recorded for the serializability oracle: the
/// otx (rewound body + starting stack), the stack it actually finished
/// with (the simulation requires the atomic replay to reproduce it —
/// cmtpres relates runs with the *same* final sigma'), and the global
/// commit order index.
struct CommittedTx {
  TxId Tid = 0;
  CodePtr Body;
  Stack Sigma;
  Stack FinalSigma;
  uint64_t CommitSeq = 0;
};

/// One APP possibility: a step() item together with its allowed
/// completions under the current local view.
struct AppChoice {
  StepItem Item;
  /// Index of Item within step(c) — pass to app().
  size_t StepIdx = 0;
  std::vector<Completion> Completions;
};

/// The PUSH/PULL machine.  Copyable: a copy shares the spec, the mover
/// checker's memo tables (pure caches) and every log chunk, and starts
/// with an empty undo trail.  Searches fire rules in place under an undo
/// mark instead of copying.
class PushPullMachine {
public:
  PushPullMachine(const SequentialSpec &Spec, MoverChecker &Movers,
                  MachineConfig Config = {});

  /// Add a thread whose program is the given sequence of transaction
  /// bodies (a leading Tx node on a body is stripped).  Returns its id.
  TxId addThread(std::vector<CodePtr> Transactions);

  /// Prepend further transactions to a thread's pending queue (they run
  /// before anything already queued).  Engines use this for dynamically
  /// generated work such as open nesting's compensating transactions.
  void queueTransactionsFront(TxId T, std::vector<CodePtr> Transactions);

  // -- Structural (non-rule) reductions ------------------------------------

  /// Begin the thread's next pending transaction.  Fails (returns false)
  /// if one is already in progress or none are pending.
  bool beginTx(TxId T);

  // -- The seven rules of Figure 5 -----------------------------------------

  /// All APP possibilities for thread \p T right now.
  std::vector<AppChoice> appChoices(TxId T) const;

  /// APP using choice \p StepIdx of step(c) and completion \p CompIdx of
  /// the allowed completions.
  RuleResult app(TxId T, size_t StepIdx, size_t CompIdx);

  /// UNAPP the most recent local-log entry (must be npshd).
  RuleResult unapp(TxId T);

  /// PUSH the local-log entry at \p LocalIdx (must be npshd).
  RuleResult push(TxId T, size_t LocalIdx);

  /// UNPUSH the local-log entry at \p LocalIdx (must be pshd).
  RuleResult unpush(TxId T, size_t LocalIdx);

  /// PULL the global-log entry at \p GlobalIdx.
  RuleResult pull(TxId T, size_t GlobalIdx);

  /// UNPULL the local-log entry at \p LocalIdx (must be pld).
  RuleResult unpull(TxId T, size_t LocalIdx);

  /// CMT the thread's transaction.
  RuleResult commit(TxId T);

  // -- Undo trail -----------------------------------------------------------

  /// A position in the undo trail, from mark().  It also carries what a
  /// rollback restores wholesale because rules only ever extend it: the
  /// trace and audit lengths, the trace's next sequence number, and the
  /// op-id source (so the next APP draws the id it would draw on a copy).
  struct UndoMark {
    size_t Records = 0;
    size_t TraceSize = 0;
    uint64_t TraceSeq = 0;
    size_t AuditSize = 0;
    OpIdSource Ids;
    unsigned Depth = 0;
  };

  /// Open a mark.  Until it is rolled back, every beginTx and every applied
  /// rule pushes one undo record; with no mark open nothing is recorded.
  /// Marks nest last in, first out.
  UndoMark mark();

  /// Undo, newest first, every BEGIN and rule applied since \p M was
  /// opened, and close \p M.  Each record is undone by the exact inverse of
  /// its mutation (APP and PULL truncate L, PUSH truncates G and unflags
  /// its entry, CMT moves L back and drops its committed record, the
  /// backward rules re-insert what they removed), so the machine is left
  /// as it was at mark() — the paper's UNAPP∘APP, UNPUSH∘PUSH and
  /// UNPULL∘PULL identities, applied raw: rolling back evaluates no
  /// criterion, calls no OnRuleApplied and records nothing.  References
  /// into the logs taken after \p M was opened dangle afterwards.
  void rollbackTo(const UndoMark &M);

  // -- Observation ----------------------------------------------------------

  const GlobalLog &global() const { return G; }
  /// Thread container: inline up to four threads, so a machine of up to
  /// four threads keeps its thread array out of the heap.
  using ThreadList = SmallVec<ThreadState, 4>;

  const ThreadList &threads() const { return Threads; }
  const ThreadState &thread(TxId T) const;
  const RuleTrace &trace() const { return Trace; }

  /// One audited rule application (only recorded with Config.RecordAudit).
  struct AuditEntry {
    TxId Tid = 0;
    std::string OpText;
    RuleResult Result;
  };
  const std::vector<AuditEntry> &audit() const { return Audit; }

  /// Render the audit log: every applied rule with each criterion's
  /// verdict — the discharge record of the paper's side-conditions.
  std::string auditToString() const;
  const std::vector<CommittedTx> &committed() const {
    return Committed.view();
  }
  const SequentialSpec &spec() const { return *Spec; }
  MoverChecker &movers() const { return *Movers; }
  const MachineConfig &config() const { return Config; }

  /// Replace the validation configuration.  Useful for tests and
  /// experiments that build a configuration under one regime and then
  /// probe rules under another.
  void setConfig(MachineConfig C) { Config = C; }

  /// Overwrite this machine's configuration wholesale with an externally
  /// constructed (T, G) pair.  This is the static-analysis install hook:
  /// ppcheck's obligation audit enumerates abstract log/state shapes as
  /// plain data and plants each one here, then probes individual rules —
  /// no scheduler ever runs.  The caller is responsible for structural
  /// well-formedness (thread Tids dense and in order, pshd/pld entries
  /// present in \p NewG, InTx threads carrying non-null Code/OrigCode);
  /// \p MaxUsedId seeds the fresh-id source past every installed
  /// operation so APP probes cannot collide with installed ids.  Trace,
  /// audit, and committed history are reset: an installed shape is a
  /// point configuration, not a history.  No mark may be open.
  void installForAnalysis(ThreadList NewThreads, GlobalLog NewG,
                          OpId MaxUsedId);

  /// Canonical key of this configuration (threads' code, stacks, logs, G,
  /// and the content of committed transactions).  Operation ids differ
  /// between branches that apply "the same" operation, so the key renders
  /// operations by call/result and logs by structure.  Committed content
  /// (bodies and stacks in commit order, tid-free) is part of the key
  /// because the serializability oracle's verdict is a function of it:
  /// without it, two configurations differing only in commit order would
  /// merge in the explorer's visited map and the surviving verdict would
  /// depend on traversal order.  Used by the explorer's visited set.
  ///
  /// Operations, remaining code and committed records are rendered as ids
  /// the spec's StateTable interns by content, so two keys compare equal
  /// exactly when the configurations render to the same text — but key
  /// bytes are only comparable between machines over one spec.
  ///
  /// \p LabelOf, if given, renames thread ids for the symmetry reduction:
  /// thread \c T is rendered in slot \c (*LabelOf)[T] and global-log
  /// owners are rewritten through the same map.  Sound only for
  /// permutations that map threads to threads with identical programs
  /// (pending queues are keyed by count, not content).
  ///
  /// \p Commut, if given, renders the G section (and the L->G links) in
  /// the canonical order of core/Commut.h's G-order quotient instead of
  /// append order, merging configurations that differ only by adjacent
  /// swaps of cross-thread strongly-commuting entries.  \p GOrderOut, when
  /// non-null, receives the canonical-position -> original-index
  /// permutation actually used (the identity when \p Commut is null) so
  /// callers can express G indices (sleep-set PULL members) in the same
  /// order the key was rendered in.
  std::string configKey(const std::vector<TxId> *LabelOf = nullptr,
                        const CommutativityOracle *Commut = nullptr,
                        SmallVec<uint32_t, 16> *GOrderOut = nullptr) const {
    std::string Out;
    configKeyInto(Out, LabelOf, Commut, GOrderOut);
    return Out;
  }

  /// configKey rendered into \p Out (replacing its contents).  The
  /// explorer keys every successor through one reused buffer, so a key
  /// that is already visited costs no allocation.
  void configKeyInto(std::string &Out,
                     const std::vector<TxId> *LabelOf = nullptr,
                     const CommutativityOracle *Commut = nullptr,
                     SmallVec<uint32_t, 16> *GOrderOut = nullptr) const;

  /// The minimum of configKey over a whole symmetry group (\p Perms;
  /// element 0 must be the identity), rendered into \p Out, with
  /// \p BestPerm set to the index of the minimizing permutation.
  /// Equivalent to taking configKey(&P) for every P and keeping the
  /// smallest, but renders the label-independent sections once instead of
  /// once per permutation — the symmetry reduction keys every visited
  /// configuration |Perms| ways.  With \p Commut the G quotient order
  /// depends on the owner relabeling, so each permutation is rendered in
  /// full; \p GOrderOut receives the minimizing permutation's canonical G
  /// order.  The per-permutation candidates are assembled in thread-local
  /// scratch buffers, so the steady state allocates nothing.
  void configKeyCanonicalInto(std::string &Out,
                              const std::vector<std::vector<TxId>> &Perms,
                              size_t &BestPerm,
                              const CommutativityOracle *Commut = nullptr,
                              SmallVec<uint32_t, 16> *GOrderOut = nullptr)
      const;

  /// The committed projection |G|_gCmt — what the serializability theorem
  /// relates to an atomic log.
  std::vector<Operation> committedLog() const;

  /// The thread's local view: denotation of its local log.
  StateSet localView(TxId T) const;

  /// True when every thread is done and no transaction is in flight.
  bool quiescent() const;

  /// Render the full configuration (threads + G) for diagnostics.
  std::string toString() const;

private:
  ThreadState &threadMut(TxId T);

  /// Interned denotation of \p Th's local log: its last entry's stored
  /// prefix (core/Log.h).  This is the machine's hottest spec query (APP
  /// choice enumeration, APP/PULL criteria, local views).
  StateSetId localViewId(const ThreadState &Th) const;

  /// Evaluate a Tri criterion under the current validation level (at
  /// Trusting level the thunk is skipped entirely) and append its report
  /// to \p Rs.  Clean passes are elided unless Config.RecordAudit; failing
  /// and Unknown verdicts are always appended so firstFailure() works.
  template <typename Fn>
  void evalCriterion(CriterionReports &Rs, StaticText Name, Fn &&Thunk,
                     StaticText Detail = {}) const;

  /// Append a report for an inline-evaluated verdict, with the same
  /// pass-elision policy as evalCriterion.
  void noteCriterion(CriterionReports &Rs, StaticText Name, Tri V,
                     StaticText Detail = {}) const;

  /// Does this set of reports permit the rule to fire?
  bool reportsPass(const CriterionReports &Rs) const;

  /// Run the Section 5.3 invariant suite (Full level only); asserts on
  /// violation.
  void checkInvariantsAfterStep(const char *Rule);

  /// The committed-content key section (see configKey), memoized in
  /// CommittedKey.
  uint32_t committedKeyId() const;

  void recordEvent(TxId T, RuleKind K, const Operation *Op,
                   bool PulledUncommitted = false);
  void recordAudit(TxId T, const Operation *Op, const RuleResult &R);

  /// See CommittedKey.
  struct CommittedKeyMemo {
    InternCache Id;
    uint32_t Count = 0;
  };

  /// What one undo record inverts.
  enum class UndoKind : uint8_t {
    Begin, App, UnApp, Push, UnPush, Pull, UnPull, Commit
  };
  /// One BEGIN or applied rule: the thread and the log positions its
  /// inverse needs.  What a configuration cannot recompute rides on the
  /// trail's side stacks, pushed in record order.
  struct UndoRecord {
    UndoKind Kind;
    TxId Tid;
    uint32_t Local = 0;  ///< L index (PUSH, UNPUSH, UNPULL).
    uint32_t Global = 0; ///< G index (UNPUSH).
  };
  /// The thread fields and caches BEGIN, UNAPP and CMT overwrite.
  struct UndoSaved {
    CodePtr Code;
    CodePtr OrigCode;   ///< BEGIN.
    Stack Sigma;        ///< BEGIN: OrigSigma; UNAPP: Sigma.
    LocalLog L;         ///< CMT.
    CommittedKeyMemo CommittedKey; ///< CMT.
    SmallVec<uint32_t, 4> Flipped; ///< CMT: G entries it marked gCmt.
  };
  /// The undo trail.  Copying a machine starts the copy's trail empty: a
  /// mark belongs to the machine that opened it.
  struct UndoTrail {
    UndoTrail() = default;
    UndoTrail(const UndoTrail &) {}
    UndoTrail(UndoTrail &&) = default;
    UndoTrail &operator=(const UndoTrail &) { return *this = UndoTrail(); }
    UndoTrail &operator=(UndoTrail &&) = default;

    unsigned Open = 0;
    std::vector<UndoRecord> Records;
    std::vector<UndoSaved> Saved;          ///< BEGIN, UNAPP, CMT.
    std::vector<LocalEntry> LocalEntries;  ///< UNAPP, UNPULL.
    std::vector<GlobalEntry> GlobalEntries; ///< UNPUSH.
  };

  /// Push an undo record when a mark is open; returns whether it did.
  bool recordUndo(UndoKind K, TxId T, size_t Local = 0, size_t Global = 0);

  const SequentialSpec *Spec;
  MoverChecker *Movers;
  MachineConfig Config;

  ThreadList Threads;
  GlobalLog G;
  OpIdSource Ids;
  RuleTrace Trace;
  std::vector<AuditEntry> Audit;
  /// Copy-on-write, so a machine copy shares the history; the oracle and
  /// configKey read it constantly, commits extend it rarely.
  CowVec<CommittedTx> Committed;
  /// Memoized configKey committed section (relabeling-invariant, extended
  /// only by CMT): the chain id of the history's first Count records,
  /// tagged with the spec's table.  Copies copy it; rolling a CMT back
  /// restores the memo it saved.
  mutable CommittedKeyMemo CommittedKey;
  uint64_t CommitSeq = 0;
  UndoTrail Undo;
  /// Counts whole-machine copies into memstats::MachineCopies.
  [[no_unique_address]] memstats::CopyTick CopyTick;
};

/// What a rule's Figure 5 criteria read and what its mutation writes,
/// summarized at the granularity the partial-order reduction needs: the
/// firing thread's own state {c, sigma, L} versus the shared log G.  The
/// per-rule values are justified criterion by criterion in
/// Machine.cpp:ruleFootprint, next to the code that evaluates them.
struct RuleFootprint {
  /// Some criterion consults G (beyond the thread's own entries' links).
  bool ReadsGlobal = false;
  /// The mutation appends to / removes from / reflags G.
  bool WritesGlobal = false;

  /// The rule neither reads nor writes G: it commutes with every firing
  /// of every other thread.
  bool local() const { return !ReadsGlobal && !WritesGlobal; }
};

/// The static footprint of \p K.  All rules read and write their own
/// thread's {c, sigma, L}; this reports their shared-log footprint.
RuleFootprint ruleFootprint(RuleKind K);

} // namespace pushpull

#endif // PUSHPULL_CORE_MACHINE_H

//===- core/Machine.cpp - The PUSH/PULL machine -----------------------------===//

#include "core/Machine.h"

#include "core/Invariants.h"
#include "lang/Printer.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace pushpull;

PushPullMachine::PushPullMachine(const SequentialSpec &Spec,
                                 MoverChecker &Movers, MachineConfig Config)
    : Spec(&Spec), Movers(&Movers), Config(Config) {}

TxId PushPullMachine::addThread(std::vector<CodePtr> Transactions) {
  ThreadState T;
  T.Tid = static_cast<TxId>(Threads.size());
  for (CodePtr &C : Transactions) {
    assert(C && "null transaction body");
    // Accept either `tx { body }` or a bare body.
    T.Pending.push_back(C->kind() == CodeKind::Tx ? C->body() : C);
  }
  Threads.push_back(std::move(T));
  return Threads.back().Tid;
}

void PushPullMachine::queueTransactionsFront(
    TxId T, std::vector<CodePtr> Transactions) {
  ThreadState &Th = threadMut(T);
  for (size_t I = Transactions.size(); I > 0; --I) {
    CodePtr C = Transactions[I - 1];
    assert(C && "null transaction body");
    Th.Pending.insertFront(C->kind() == CodeKind::Tx ? C->body() : C);
  }
}

const ThreadState &PushPullMachine::thread(TxId T) const {
  assert(T < Threads.size() && "bad thread id");
  return Threads[T];
}

ThreadState &PushPullMachine::threadMut(TxId T) {
  assert(T < Threads.size() && "bad thread id");
  return Threads[T];
}

bool PushPullMachine::beginTx(TxId T) {
  ThreadState &Th = threadMut(T);
  if (Th.InTx || Th.Pending.empty())
    return false;
  if (recordUndo(UndoKind::Begin, T)) {
    UndoSaved &S = Undo.Saved.emplace_back();
    S.Code = std::move(Th.Code);
    S.OrigCode = std::move(Th.OrigCode);
    S.Sigma = std::move(Th.OrigSigma);
  }
  Th.Code = Th.Pending.front();
  Th.Pending.eraseFront();
  Th.OrigCode = Th.Code;
  Th.OrigSigma = Th.Sigma;
  Th.InTx = true;
  assert(Th.L.empty() && "local log nonempty outside a transaction");
  return true;
}

void PushPullMachine::noteCriterion(CriterionReports &Rs, StaticText Name,
                                    Tri V, StaticText Detail) const {
  // A clean pass is pure bookkeeping: nothing on the hot path reads it, so
  // it is only materialized when the configuration records audits.  Failing
  // and Unknown reports are always kept — firstFailure() and the tests'
  // failedOn() are defined by them.
  if (V == Tri::Yes && !Config.RecordAudit)
    return;
  Rs.push_back(criterion(Name, V, Detail));
}

template <typename Fn>
void PushPullMachine::evalCriterion(CriterionReports &Rs, StaticText Name,
                                    Fn &&Thunk, StaticText Detail) const {
  if (!Config.DisabledCriterion.empty() && Config.DisabledCriterion == Name) {
    // Fault injection for the fuzzer's self-test: pretend the criterion
    // holds.  See MachineConfig::DisabledCriterion.
    if (Config.RecordAudit)
      Rs.push_back(criterion(Name, Tri::Yes, "disabled by test hook"));
    return;
  }
  if (Config.Level == ValidationLevel::Trusting) {
    // Trusting mode does not spend time on the semantic criteria; report
    // them as unchecked-but-accepted.
    if (Config.RecordAudit)
      Rs.push_back(criterion(Name, Tri::Yes, "unchecked (trusting mode)"));
    return;
  }
  noteCriterion(Rs, Name, Thunk(), Detail);
}

bool PushPullMachine::reportsPass(const CriterionReports &Rs) const {
  for (const CriterionReport &R : Rs) {
    if (R.Verdict == Tri::No)
      return false;
    if (R.Verdict == Tri::Unknown && Config.UnknownIsFailure)
      return false;
  }
  return true;
}

void PushPullMachine::recordAudit(TxId T, const Operation *Op,
                                  const RuleResult &R) {
  if (!Config.RecordAudit)
    return;
  AuditEntry E;
  E.Tid = T;
  if (Op)
    E.OpText = Op->toString();
  E.Result = R;
  Audit.push_back(std::move(E));
}

std::string PushPullMachine::auditToString() const {
  std::string Out;
  for (const AuditEntry &E : Audit) {
    Out += "t" + std::to_string(E.Tid) + ": ";
    if (!E.OpText.empty())
      Out += E.OpText + " ";
    Out += E.Result.toString() + "\n";
  }
  return Out;
}

void PushPullMachine::recordEvent(TxId T, RuleKind K, const Operation *Op,
                                  bool PulledUncommitted) {
  if (Config.RecordTrace) {
    TraceEvent E;
    E.Tid = T;
    E.Rule = K;
    if (Op) {
      E.Id = Op->Id;
      // The rendered text is a per-event heap string nothing on the hot
      // path reads; trace printing falls back to "#id" without it.
      if (Config.RecordAudit)
        E.OpText = Op->toString();
    }
    E.PulledUncommitted = PulledUncommitted;
    Trace.record(std::move(E));
  }
  // recordEvent runs after the rule's mutation is complete, so this is
  // the "after every rule firing" point differential checkers hook.
  if (Config.OnRuleApplied)
    Config.OnRuleApplied(*this, K, T);
}

void PushPullMachine::checkInvariantsAfterStep(const char *Rule) {
  if (Config.Level != ValidationLevel::Full)
    return;
  for (const ThreadState &Th : Threads) {
    InvariantReport R = checkAllInvariants(Th, G, *Movers);
    if (!R.Holds) {
      // Full mode is a hard runtime guarantee, independent of NDEBUG: a
      // broken Section 5.3 invariant means the machine itself is wrong,
      // and continuing would corrupt every downstream verdict.
      std::fprintf(stderr,
                   "pushpull: machine invariant %s violated after %s on "
                   "t%u: %s\n",
                   R.Which.c_str(), Rule, Th.Tid, R.Detail.c_str());
      std::abort();
    }
  }
}

StateSetId PushPullMachine::localViewId(const ThreadState &Th) const {
  return Th.L.denotation(Spec->initialId());
}

namespace {

/// [[Log]] with the entry at \p Skip left out, folded from the stored
/// prefix before it: UNPUSH (ii)'s and UNPULL (i)'s guard.
template <typename LogT>
StateSetId denotationWithout(const SequentialSpec &Spec, const LogT &Log,
                             size_t Skip) {
  StateSetId S = Skip ? Log[Skip - 1].Prefix : Spec.initialId();
  size_t I = 0;
  for (const auto &E : Log)
    if (I++ > Skip)
      S = Spec.applyOpId(S, E.Op);
  return S;
}

/// Re-fold the prefix denotations of \p Log from index \p From on, after
/// an entry was removed or re-inserted there or the log was installed
/// wholesale.  Only prefixes that change are written, so shared chunks
/// stay shared where nothing moved.
template <typename LogT>
void refoldPrefixes(const SequentialSpec &Spec, LogT &Log, size_t From) {
  StateSetId S = From ? Log[From - 1].Prefix : Spec.initialId();
  for (size_t I = From; I < Log.size(); ++I) {
    S = Spec.applyOpId(S, Log[I].Op);
    if (Log[I].Prefix != S)
      Log.setPrefix(I, S);
  }
}

} // namespace

std::vector<AppChoice> PushPullMachine::appChoices(TxId T) const {
  const ThreadState &Th = thread(T);
  std::vector<AppChoice> Out;
  if (!Th.InTx)
    return Out;
  const StateSet &View = Spec->setOf(localViewId(Th));
  const std::vector<StepItem> &Steps = step(Th.Code);
  for (size_t I = 0; I < Steps.size(); ++I) {
    auto Call = Steps[I].Call.resolve(Th.Sigma);
    if (!Call)
      continue;
    AppChoice C;
    C.Completions = Spec->completionsFrom(View, *Call);
    if (C.Completions.empty())
      continue; // Method not allowed under the local view at all.
    C.Item = Steps[I];
    C.StepIdx = I;
    Out.push_back(std::move(C));
  }
  return Out;
}

RuleResult PushPullMachine::app(TxId T, size_t StepIdx, size_t CompIdx) {
  ThreadState &Th = threadMut(T);
  if (!Th.InTx)
    return RuleResult::malformed(RuleKind::App, "no transaction in progress");

  const std::vector<StepItem> &Steps = step(Th.Code);
  if (StepIdx >= Steps.size())
    return RuleResult::malformed(RuleKind::App, "step choice out of range");
  const StepItem &It = Steps[StepIdx];

  auto Call = It.Call.resolve(Th.Sigma);
  if (!Call)
    return RuleResult::malformed(RuleKind::App,
                                 "unbound variable in method arguments");

  // APP criterion (ii): the local log allows the operation; we realize it
  // by drawing the completion from the local view's allowed completions.
  StateSetId ViewId = localViewId(Th);
  std::vector<Completion> Comps =
      Spec->completionsFrom(Spec->setOf(ViewId), *Call);
  CriterionReports Rs;
  noteCriterion(Rs, "APP criterion (i)", Tri::Yes,
                "(m, c') drawn from step(c)");
  if (CompIdx >= Comps.size()) {
    noteCriterion(Rs, "APP criterion (ii)", Tri::No,
                  "local log does not allow the operation (no "
                  "such completion)");
    return RuleResult::rejected(RuleKind::App, std::move(Rs));
  }
  noteCriterion(Rs, "APP criterion (ii)", Tri::Yes,
                "completion allowed by the local log");

  Operation Op;
  Op.Call = *Call;
  Op.Pre = Th.Sigma;
  Op.Result = Comps[CompIdx].Result;
  Stack Post = Th.Sigma;
  if (It.Call.ResultVar && Op.Result)
    Post.set(*It.Call.ResultVar, *Op.Result);
  Op.Post = Post;
  Op.Id = Ids.fresh();
  if (Config.RecordAudit)
    Rs.push_back(criterion("APP criterion (iii)", Tri::Yes,
                           "the operation's id is fresh"));

  LocalEntry E;
  E.Prefix = Spec->applyOpId(ViewId, Op); // Keys Op before it is copied.
  E.Op = Op;
  E.Kind = LocalKind::NotPushed;
  E.SavedCode = Th.Code; // The pre-code c1, so UNAPP can rewind to it.
  Th.L.append(std::move(E));
  Th.Sigma = std::move(Post);
  Th.Code = It.Rest;
  recordUndo(UndoKind::App, T);

  recordEvent(T, RuleKind::App, &Op);
  checkInvariantsAfterStep("APP");
  RuleResult Out = RuleResult::applied(RuleKind::App, std::move(Rs));
  recordAudit(T, &Op, Out);
  return Out;
}

RuleResult PushPullMachine::unapp(TxId T) {
  ThreadState &Th = threadMut(T);
  if (!Th.InTx)
    return RuleResult::malformed(RuleKind::UnApp,
                                 "no transaction in progress");
  if (Th.L.empty())
    return RuleResult::malformed(RuleKind::UnApp, "local log is empty");

  const LocalEntry &Last = Th.L[Th.L.size() - 1];
  if (Last.Kind != LocalKind::NotPushed)
    return RuleResult::rejected(
        RuleKind::UnApp,
        {criterion("UNAPP flag check", Tri::No,
                   Last.Kind == LocalKind::Pushed
                       ? StaticText("last local entry is pshd, not npshd")
                       : StaticText("last local entry is pld, not npshd"))});

  Operation Op = Last.Op;
  if (recordUndo(UndoKind::UnApp, T)) {
    UndoSaved &S = Undo.Saved.emplace_back();
    S.Code = std::move(Th.Code);
    S.Sigma = std::move(Th.Sigma);
    Undo.LocalEntries.push_back(Last);
  }
  Th.Sigma = Last.Op.Pre;    // Recall the previous local stack...
  Th.Code = Last.SavedCode;  // ...and the previous code.
  Th.L.truncate(Th.L.size() - 1);

  recordEvent(T, RuleKind::UnApp, &Op);
  checkInvariantsAfterStep("UNAPP");
  RuleResult Out = RuleResult::applied(RuleKind::UnApp);
  recordAudit(T, &Op, Out);
  return Out;
}

RuleResult PushPullMachine::push(TxId T, size_t LocalIdx) {
  ThreadState &Th = threadMut(T);
  if (!Th.InTx)
    return RuleResult::malformed(RuleKind::Push, "no transaction in progress");
  if (LocalIdx >= Th.L.size())
    return RuleResult::malformed(RuleKind::Push, "no such local-log entry");
  const LocalEntry &E = Th.L[LocalIdx];
  if (E.Kind != LocalKind::NotPushed)
    return RuleResult::rejected(
        RuleKind::Push, {criterion("PUSH flag check", Tri::No,
                                   "entry is not npshd")});
  const Operation &Op = E.Op;

  CriterionReports Rs;

  // PUSH criterion (i): op can move to the left of every unpushed
  // operation that precedes it in the local log ("publish op as if it was
  // the next thing to happen after the operations published thus far").
  // When operations are pushed in the order they were applied this is
  // vacuous, which is the paper's remark that existing implementations
  // satisfy it trivially; it bites only for out-of-order pushes (Sec. 7).
  evalCriterion(Rs, "PUSH criterion (i)", [&] {
    Tri V = Tri::Yes;
    size_t I = 0;
    for (const LocalEntry &U : Th.L.entries()) {
      if (I++ >= LocalIdx)
        break;
      if (U.Kind != LocalKind::NotPushed)
        continue;
      V = triAnd(V, Movers->leftMover(Op, U.Op));
      if (V == Tri::No)
        break;
    }
    return V;
  });

  // PUSH criterion (ii): every uncommitted operation of *another*
  // transaction in G can move to the right of op (x <| op).  "Another
  // transaction" is by ownership: an uncommitted operation we pulled into
  // our view still constrains us — exempting it would let a transaction
  // pull, publish around, unpull, and commit before its dependency,
  // breaking the owner's I_slideR (Lemma 5.8) and with it the commit-order
  // serialization witness.
  evalCriterion(Rs, "PUSH criterion (ii)", [&] {
    Tri V = Tri::Yes;
    for (const GlobalEntry &GE : G.entries()) {
      if (GE.Kind != GlobalKind::Uncommitted || GE.Owner == T)
        continue;
      V = triAnd(V, Movers->leftMover(GE.Op, Op));
      if (V == Tri::No)
        break;
    }
    return V;
  });

  // PUSH criterion (iii): G . op is allowed by the sequential spec.  Its
  // denotation is also the pushed entry's prefix.
  StateSetId GAfter = Spec->applyOpId(G.denotation(Spec->initialId()), Op);
  evalCriterion(Rs, "PUSH criterion (iii)", [&] {
    return triOf(GAfter != StateTable::EmptySetId);
  });

  if (!reportsPass(Rs))
    return RuleResult::rejected(RuleKind::Push, std::move(Rs));

  // Build the global entry before setKind.  The CoW flag flip may clone
  // the chunk holding E and drop this log's reference to the original,
  // which a machine copy on another thread may then free: E and Op are not
  // read past it.
  GlobalEntry GE;
  GE.Op = Op;
  GE.Kind = GlobalKind::Uncommitted;
  GE.Owner = T;
  GE.Prefix = GAfter;
  Th.L.setKind(LocalIdx, LocalKind::Pushed);
  G.append(std::move(GE));
  recordUndo(UndoKind::Push, T, LocalIdx);
  const Operation &Pushed = G[G.size() - 1].Op;

  recordEvent(T, RuleKind::Push, &Pushed);
  checkInvariantsAfterStep("PUSH");
  RuleResult Out = RuleResult::applied(RuleKind::Push, std::move(Rs));
  recordAudit(T, &Pushed, Out);
  return Out;
}

RuleResult PushPullMachine::unpush(TxId T, size_t LocalIdx) {
  ThreadState &Th = threadMut(T);
  if (!Th.InTx)
    return RuleResult::malformed(RuleKind::UnPush,
                                 "no transaction in progress");
  if (LocalIdx >= Th.L.size())
    return RuleResult::malformed(RuleKind::UnPush, "no such local-log entry");
  const LocalEntry &E = Th.L[LocalIdx];
  if (E.Kind != LocalKind::Pushed)
    return RuleResult::rejected(
        RuleKind::UnPush, {criterion("UNPUSH flag check", Tri::No,
                                     "entry is not pshd")});
  // Copy: the setKind below may clone the chunk that holds E.
  Operation Op = E.Op;

  size_t GIdx = G.indexOf(Op.Id);
  if (GIdx == GlobalLog::npos)
    return RuleResult::malformed(RuleKind::UnPush,
                                 "pshd entry missing from G (I_LG broken)");
  if (G[GIdx].Kind == GlobalKind::Committed)
    return RuleResult::rejected(
        RuleKind::UnPush, {criterion("UNPUSH uncommitted check", Tri::No,
                                     "cannot unpush a committed operation")});

  CriterionReports Rs;

  // UNPUSH criterion (i) (gray: "not strictly necessary because we can
  // prove that it must hold whenever an UNPUSH occurs"): nothing pushed
  // after op depends on it — op can move right past every later entry of
  // other transactions.
  if (Config.EnforceGrayCriteria) {
    evalCriterion(Rs, "UNPUSH criterion (i)", [&] {
      Tri V = Tri::Yes;
      size_t I = 0;
      for (const GlobalEntry &Later : G.entries()) {
        if (I++ <= GIdx)
          continue;
        if (Th.L.contains(Later.Op.Id))
          continue;
        V = triAnd(V, Movers->leftMover(Op, Later.Op));
        if (V == Tri::No)
          break;
      }
      return V;
    });
  }

  // UNPUSH criterion (ii): everything pushed chronologically after op
  // could still have been pushed had op not been — i.e. G with op removed
  // is still allowed.
  evalCriterion(Rs, "UNPUSH criterion (ii)", [&] {
    return triOf(denotationWithout(*Spec, G, GIdx) !=
                 StateTable::EmptySetId);
  });

  if (!reportsPass(Rs))
    return RuleResult::rejected(RuleKind::UnPush, std::move(Rs));

  if (recordUndo(UndoKind::UnPush, T, LocalIdx, GIdx))
    Undo.GlobalEntries.push_back(G[GIdx]);
  Th.L.setKind(LocalIdx, LocalKind::NotPushed);
  G.removeAt(GIdx);
  refoldPrefixes(*Spec, G, GIdx);

  recordEvent(T, RuleKind::UnPush, &Op);
  checkInvariantsAfterStep("UNPUSH");
  RuleResult Out = RuleResult::applied(RuleKind::UnPush, std::move(Rs));
  recordAudit(T, &Op, Out);
  return Out;
}

RuleResult PushPullMachine::pull(TxId T, size_t GlobalIdx) {
  ThreadState &Th = threadMut(T);
  if (!Th.InTx)
    return RuleResult::malformed(RuleKind::Pull, "no transaction in progress");
  if (GlobalIdx >= G.size())
    return RuleResult::malformed(RuleKind::Pull, "no such global-log entry");
  const GlobalEntry &GE = G[GlobalIdx];
  const Operation &Op = GE.Op;

  CriterionReports Rs;

  // PULL criterion (i): op was not pulled (or pushed) before.
  noteCriterion(Rs, "PULL criterion (i)", triOf(!Th.L.contains(Op.Id)),
                "operation must not already be in L");

  // PULL criterion (ii): the local log allows op.  Its denotation is also
  // the pulled entry's prefix.
  StateSetId LAfter = Spec->applyOpId(localViewId(Th), Op);
  evalCriterion(Rs, "PULL criterion (ii)", [&] {
    return triOf(LAfter != StateTable::EmptySetId);
  });

  // PULL criterion (iii) (gray): everything the transaction has done
  // locally can move to the right of op, so it can behave as if the pulled
  // effect preceded it.
  if (Config.EnforceGrayCriteria) {
    evalCriterion(Rs, "PULL criterion (iii)", [&] {
      Tri V = Tri::Yes;
      for (const LocalEntry &E : Th.L.entries()) {
        if (E.Kind == LocalKind::Pulled)
          continue;
        V = triAnd(V, Movers->leftMover(E.Op, Op));
        if (V == Tri::No)
          break;
      }
      return V;
    });
  }

  if (!reportsPass(Rs))
    return RuleResult::rejected(RuleKind::Pull, std::move(Rs));

  bool WasUncommitted = GE.Kind == GlobalKind::Uncommitted;
  LocalEntry E;
  E.Op = Op;
  E.Kind = LocalKind::Pulled;
  E.Prefix = LAfter;
  Th.L.append(std::move(E));
  recordUndo(UndoKind::Pull, T);

  recordEvent(T, RuleKind::Pull, &Op, WasUncommitted);
  checkInvariantsAfterStep("PULL");
  RuleResult Out = RuleResult::applied(RuleKind::Pull, std::move(Rs));
  recordAudit(T, &Op, Out);
  return Out;
}

RuleResult PushPullMachine::unpull(TxId T, size_t LocalIdx) {
  ThreadState &Th = threadMut(T);
  if (!Th.InTx)
    return RuleResult::malformed(RuleKind::UnPull,
                                 "no transaction in progress");
  if (LocalIdx >= Th.L.size())
    return RuleResult::malformed(RuleKind::UnPull, "no such local-log entry");
  const LocalEntry &E = Th.L[LocalIdx];
  if (E.Kind != LocalKind::Pulled)
    return RuleResult::rejected(
        RuleKind::UnPull, {criterion("UNPULL flag check", Tri::No,
                                     "entry is not pld")});
  Operation Op = E.Op;

  CriterionReports Rs;

  // UNPULL criterion (i): the local log is allowed without op (the
  // transaction did nothing that depended on it).
  evalCriterion(Rs, "UNPULL criterion (i)", [&] {
    return triOf(denotationWithout(*Spec, Th.L, LocalIdx) !=
                 StateTable::EmptySetId);
  });

  if (!reportsPass(Rs))
    return RuleResult::rejected(RuleKind::UnPull, std::move(Rs));

  if (recordUndo(UndoKind::UnPull, T, LocalIdx))
    Undo.LocalEntries.push_back(Th.L[LocalIdx]);
  Th.L.removeAt(LocalIdx);
  refoldPrefixes(*Spec, Th.L, LocalIdx);

  recordEvent(T, RuleKind::UnPull, &Op);
  checkInvariantsAfterStep("UNPULL");
  RuleResult Out = RuleResult::applied(RuleKind::UnPull, std::move(Rs));
  recordAudit(T, &Op, Out);
  return Out;
}

RuleResult PushPullMachine::commit(TxId T) {
  ThreadState &Th = threadMut(T);
  if (!Th.InTx)
    return RuleResult::malformed(RuleKind::Commit,
                                 "no transaction in progress");

  CriterionReports Rs;

  // CMT criterion (i): there is a path through the remaining code to skip.
  noteCriterion(Rs, "CMT criterion (i)", triOf(fin(Th.Code)),
                "fin(c) must hold");

  // CMT criterion (ii): L c= G — all own operations have been pushed (and
  // no pulled operation has vanished from G via its owner's UNPUSH).
  {
    bool AllPushed = true;
    for (const LocalEntry &E : Th.L.entries())
      if (E.Kind == LocalKind::NotPushed) {
        AllPushed = false;
        break;
      }
    bool Contained = G.containsAll(Th.L);
    StaticText Why;
    if (!AllPushed)
      Why = "unpushed operations remain in L";
    else if (!Contained)
      Why = "a pulled operation is no longer in G";
    noteCriterion(Rs, "CMT criterion (ii)", triOf(AllPushed && Contained),
                  Why);
  }

  // CMT criterion (iii): every pulled operation is committed in G.
  noteCriterion(Rs, "CMT criterion (iii)", [&] {
    for (const LocalEntry &E : Th.L.entries()) {
      if (E.Kind != LocalKind::Pulled)
        continue;
      bool CommittedInG = false;
      for (const GlobalEntry &GE : G.entries())
        if (GE.Op.Id == E.Op.Id) {
          CommittedInG = GE.Kind == GlobalKind::Committed;
          break;
        }
      if (!CommittedInG)
        return Tri::No;
    }
    return Tri::Yes;
  }(), "pulled operations must belong to committed transactions");

  if (!reportsPass(Rs))
    return RuleResult::rejected(RuleKind::Commit, std::move(Rs));

  // CMT criterion (iv): G2 = cmt(G1, L1, G2) — flip own entries to gCmt.
  UndoSaved *Save =
      recordUndo(UndoKind::Commit, T) ? &Undo.Saved.emplace_back() : nullptr;
  G.commitOwned(Th.L, Save ? &Save->Flipped : nullptr);
  noteCriterion(Rs, "CMT criterion (iv)", Tri::Yes,
                "own global entries marked gCmt");

  CommittedTx Rec;
  Rec.Tid = T;
  Rec.Body = Th.OrigCode;
  Rec.Sigma = Th.OrigSigma;
  Rec.FinalSigma = Th.Sigma;
  Rec.CommitSeq = CommitSeq++;
  Committed.push_back(std::move(Rec));
  // Under a mark the overwritten state moves onto the trail (OrigCode is
  // the committed record's Body).  The committed-key memo stays valid: it
  // covers a prefix of the history, which CMT only extends.
  if (Save) {
    Save->CommittedKey = CommittedKey;
    Save->Code = std::move(Th.Code);
    Save->L = std::move(Th.L);
  }

  Th.InTx = false;
  Th.Code = nullptr;
  Th.OrigCode = nullptr;
  Th.L = LocalLog();
  ++Th.Commits;

  recordEvent(T, RuleKind::Commit, nullptr);
  checkInvariantsAfterStep("CMT");
  RuleResult Out = RuleResult::applied(RuleKind::Commit, std::move(Rs));
  recordAudit(T, nullptr, Out);
  return Out;
}

bool PushPullMachine::recordUndo(UndoKind K, TxId T, size_t Local,
                                 size_t Global) {
  if (!Undo.Open)
    return false;
  Undo.Records.push_back({K, T, static_cast<uint32_t>(Local),
                          static_cast<uint32_t>(Global)});
  return true;
}

PushPullMachine::UndoMark PushPullMachine::mark() {
  UndoMark M;
  M.Records = Undo.Records.size();
  M.TraceSize = Trace.size();
  M.TraceSeq = Trace.nextSeq();
  M.AuditSize = Audit.size();
  M.Ids = Ids;
  M.Depth = ++Undo.Open;
  return M;
}

void PushPullMachine::rollbackTo(const UndoMark &M) {
  assert(Undo.Open == M.Depth && "undo marks roll back last in, first out");
  while (Undo.Records.size() > M.Records) {
    const UndoRecord R = Undo.Records.back();
    Undo.Records.pop_back();
    ThreadState &Th = threadMut(R.Tid);
    switch (R.Kind) {
    case UndoKind::Begin: {
      UndoSaved &S = Undo.Saved.back();
      Th.Pending.insertFront(std::move(Th.Code));
      Th.Code = std::move(S.Code);
      Th.OrigCode = std::move(S.OrigCode);
      Th.OrigSigma = std::move(S.Sigma);
      Th.InTx = false;
      Undo.Saved.pop_back();
      break;
    }
    case UndoKind::App: {
      // The entry APP appended holds the code and stack it replaced.
      size_t Last = Th.L.size() - 1;
      const LocalEntry &E = Th.L[Last];
      Th.Sigma = E.Op.Pre;
      Th.Code = E.SavedCode;
      Th.L.truncate(Last);
      break;
    }
    case UndoKind::UnApp: {
      UndoSaved &S = Undo.Saved.back();
      Th.L.append(std::move(Undo.LocalEntries.back()));
      Th.Code = std::move(S.Code);
      Th.Sigma = std::move(S.Sigma);
      Undo.LocalEntries.pop_back();
      Undo.Saved.pop_back();
      break;
    }
    case UndoKind::Push:
      G.truncate(G.size() - 1);
      Th.L.setKind(R.Local, LocalKind::NotPushed);
      break;
    case UndoKind::UnPush:
      // The re-inserted entry's own prefix is still right; later ones were
      // folded without it.
      G.insertAt(R.Global, std::move(Undo.GlobalEntries.back()));
      Undo.GlobalEntries.pop_back();
      refoldPrefixes(*Spec, G, R.Global + 1);
      Th.L.setKind(R.Local, LocalKind::Pushed);
      break;
    case UndoKind::Pull:
      Th.L.truncate(Th.L.size() - 1);
      break;
    case UndoKind::UnPull:
      Th.L.insertAt(R.Local, std::move(Undo.LocalEntries.back()));
      Undo.LocalEntries.pop_back();
      refoldPrefixes(*Spec, Th.L, R.Local + 1);
      break;
    case UndoKind::Commit: {
      UndoSaved &S = Undo.Saved.back();
      for (uint32_t I : S.Flipped)
        G.setKind(I, GlobalKind::Uncommitted);
      Th.OrigCode = Committed[Committed.size() - 1].Body;
      Committed.pop_back();
      CommittedKey = S.CommittedKey;
      --CommitSeq;
      Th.Code = std::move(S.Code);
      Th.L = std::move(S.L);
      Th.InTx = true;
      --Th.Commits;
      Undo.Saved.pop_back();
      break;
    }
    }
  }
  Trace.rollback(M.TraceSize, M.TraceSeq);
  Audit.resize(M.AuditSize);
  Ids = M.Ids;
  --Undo.Open;
}

namespace {

/// One configuration key under construction.  The caller sizes the buffer
/// once for everything the writer will emit, and every field is then a
/// store through a cursor rather than a std::string append; destroying
/// the writer trims the buffer to what was written.  Binary fields are
/// only ever emitted where the decoder position is unambiguous (after a
/// count prefix or at a fixed offset), so stray separator-looking bytes
/// inside them cannot create collisions.
class KeyWriter {
public:
  /// Append to \p Out, with room for at most \p Bound bytes.
  KeyWriter(std::string &Out, size_t Bound) : Out(Out) {
    size_t Begin = Out.size();
    Out.resize(Begin + Bound);
    P = Out.data() + Begin;
  }
  KeyWriter(const KeyWriter &) = delete;
  KeyWriter &operator=(const KeyWriter &) = delete;
  ~KeyWriter() {
    assert(P <= Out.data() + Out.size() && "key bound too small");
    Out.resize(static_cast<size_t>(P - Out.data()));
  }

  void byte(char C) { *P++ = C; }
  void u32(uint32_t V) {
    std::memcpy(P, &V, 4);
    P += 4;
  }
  void u64(uint64_t V) {
    std::memcpy(P, &V, 8);
    P += 8;
  }
  void bytes(const char *Src, size_t N) {
    std::memcpy(P, Src, N);
    P += N;
  }
  /// A stack: its size, then each binding's name (identifier text, never
  /// NUL) NUL-terminated and its value.  stackBound() bytes at most.
  void stack(const Stack &S) {
    u32(static_cast<uint32_t>(S.size()));
    for (const auto &[Var, Val] : S.entries()) {
      std::memcpy(P, Var.data(), Var.size());
      P += Var.size();
      byte('\0');
      u64(static_cast<uint64_t>(Val));
    }
  }

  static size_t stackBound(const Stack &S) {
    size_t N = 4;
    for (const auto &Binding : S.entries())
      N += Binding.first.size() + 9;
    return N;
  }

private:
  std::string &Out;
  char *P;
};

/// Upper bound of renderThreadKey's output for \p Th.
size_t threadKeyBound(const ThreadState &Th) {
  return 4 + KeyWriter::stackBound(Th.Sigma) + 4 + 9 * Th.L.size() + 4;
}

/// One thread's key section: {c, sigma, L, |Pending|}.  Label-independent
/// — thread identity enters the key only through section order and the
/// G-section owner labels — so the symmetry minimization renders each
/// section once and reassembles per permutation.  The remaining code is
/// its interned text id (StateTable::codeKey), 0 outside a transaction.
void renderThreadKey(KeyWriter &W, StateTable &Table, const ThreadState &Th,
                     const SmallVec<OpId, 16> &GIds) {
  auto gIndexOf = [&GIds](OpId Id) -> uint32_t {
    for (size_t I = 0; I < GIds.size(); ++I)
      if (GIds[I] == Id)
        return static_cast<uint32_t>(I);
    return UINT32_MAX;
  };
  W.u32(Th.InTx ? Table.codeKey(*Th.Code) + 1 : 0);
  W.stack(Th.Sigma);
  W.u32(static_cast<uint32_t>(Th.L.size()));
  for (const LocalEntry &E : Th.L.entries()) {
    W.u32(Table.opKey(E.Op));
    W.byte(E.Kind == LocalKind::NotPushed ? 'n'
           : E.Kind == LocalKind::Pushed  ? 'p'
                                          : 'd');
    // Position of this op in G links L and G structurally.
    W.u32(gIndexOf(E.Op.Id));
  }
  W.u32(static_cast<uint32_t>(Th.Pending.size()));
}

} // namespace

void PushPullMachine::configKeyInto(std::string &Out,
                                    const std::vector<TxId> *LabelOf,
                                    const CommutativityOracle *Commut,
                                    SmallVec<uint32_t, 16> *GOrderOut) const {
  // Operations are rendered by their interned (Call, Result) key id, and
  // remaining code and committed history by interned text ids: id
  // equality is exactly canonical-text equality, so the key partitions
  // configurations the same way a fully textual rendering would.  All
  // variable-length sections are count-prefixed, which keeps the encoding
  // injective without any decimal formatting (this runs once per explored
  // successor; the string machinery used to dominate exploration).
  StateTable &Table = Spec->table();
  // One G sweep up front: the entry ids double as the L->G link table,
  // turning per-local-entry G.indexOf chain walks into probes of a
  // contiguous array.  With a commutativity oracle the sweep is rendered
  // in the canonical quotient order instead of append order — building
  // GIds in that order automatically re-expresses every L->G link in it.
  SmallVec<GKeyView, 16> Views;
  for (const GlobalEntry &E : G.entries()) {
    GKeyView V;
    V.OpKey = Table.opKey(E.Op);
    V.Kind = E.Kind == GlobalKind::Committed ? 'C' : 'U';
    V.OwnerLabel = LabelOf ? (*LabelOf)[E.Owner] : E.Owner;
    Views.push_back(V);
  }
  SmallVec<uint32_t, 16> Order;
  if (Commut)
    canonicalGOrder(Views.begin(), Views.size(), *Commut, Order);
  else
    for (size_t I = 0; I < Views.size(); ++I)
      Order.push_back(static_cast<uint32_t>(I));

  SmallVec<OpId, 16> GIds;
  for (size_t J = 0; J < Order.size(); ++J)
    GIds.push_back(G.entries()[Order[J]].Op.Id);
  size_t Bound = 4 + 9 * GIds.size() + 4;
  for (const ThreadState &Th : Threads)
    Bound += threadKeyBound(Th);
  Out.clear();
  KeyWriter W(Out, Bound);
  if (!LabelOf) {
    for (const ThreadState &Th : Threads)
      renderThreadKey(W, Table, Th, GIds);
  } else {
    // Slot l holds the thread relabeled to l.
    SmallVec<uint32_t, 8> AtLabel;
    AtLabel.resize(Threads.size());
    for (size_t T = 0; T < Threads.size(); ++T)
      AtLabel[(*LabelOf)[T]] = static_cast<uint32_t>(T);
    for (size_t L = 0; L < AtLabel.size(); ++L)
      renderThreadKey(W, Table, Threads[AtLabel[L]], GIds);
  }
  W.u32(static_cast<uint32_t>(GIds.size()));
  for (size_t J = 0; J < Order.size(); ++J) {
    const GKeyView &V = Views[Order[J]];
    W.u32(V.OpKey);
    W.byte(V.Kind);
    W.u32(V.OwnerLabel);
  }
  W.u32(committedKeyId());
  if (GOrderOut)
    *GOrderOut = Order;
}

/// The committed-content section (see configKey): a chain of interned
/// records, one per committed transaction in commit order, each holding
/// the id of the history before it, its body's code id and its start and
/// final stacks.  0 is the empty history and a record's id is its TextId
/// plus one, so equal ids mean equal histories record by record — the
/// partition the full text rendering gave.  The chain is memoized per
/// machine and only ever extended (a CMT appends a record; rolling one
/// back restores the memo), so the key after a CMT interns one record.
uint32_t PushPullMachine::committedKeyId() const {
  StateTable &Table = Spec->table();
  const std::vector<CommittedTx> &History = Committed.view();
  uint32_t Id = 0;
  size_t From = 0;
  if (CommittedKey.Count <= History.size() &&
      CommittedKey.Id.lookup(Table.id(), Id))
    From = CommittedKey.Count;
  if (From == History.size())
    return Id;
  thread_local std::string Record;
  for (size_t I = From; I < History.size(); ++I) {
    const CommittedTx &Ct = History[I];
    Record.clear();
    {
      KeyWriter W(Record, 9 + KeyWriter::stackBound(Ct.Sigma) +
                              KeyWriter::stackBound(Ct.FinalSigma));
      W.byte('\x03'); // Never starts a code node's printed text.
      W.u32(Id);
      W.u32(Table.codeKey(*Ct.Body));
      W.stack(Ct.Sigma);
      W.stack(Ct.FinalSigma);
    }
    Id = Table.textKey(Record) + 1;
  }
  CommittedKey.Id.store(Table.id(), Id);
  CommittedKey.Count = static_cast<uint32_t>(History.size());
  return Id;
}

void PushPullMachine::configKeyCanonicalInto(
    std::string &Out, const std::vector<std::vector<TxId>> &Perms,
    size_t &BestPerm, const CommutativityOracle *Commut,
    SmallVec<uint32_t, 16> *GOrderOut) const {
  // Candidates are assembled in Cur and the best so far is kept in Out;
  // swapping the two keeps both buffers' capacity, so once they have grown
  // to the scope's key size no permutation allocates.
  thread_local std::string Cur;
  BestPerm = 0;
  // With a commutativity oracle the G quotient order depends on the owner
  // relabeling (owner labels are part of the normal form's label order),
  // so the render-once assembly below does not apply: render each
  // permutation in full and keep the minimum.
  if (Commut) {
    SmallVec<uint32_t, 16> CurOrder, BestOrder;
    for (size_t Pi = 0; Pi < Perms.size(); ++Pi) {
      configKeyInto(Pi == 0 ? Out : Cur, &Perms[Pi], Commut, &CurOrder);
      if (Pi == 0 || Cur < Out) {
        if (Pi != 0)
          std::swap(Out, Cur);
        BestOrder = CurOrder;
        BestPerm = Pi;
      }
    }
    if (GOrderOut)
      *GOrderOut = BestOrder;
    return;
  }
  if (GOrderOut) {
    GOrderOut->clear();
    for (size_t I = 0; I < G.entries().size(); ++I)
      GOrderOut->push_back(static_cast<uint32_t>(I));
  }
  // The thread sections and the G entries' (opKey, kind) prefix are
  // label-independent; only the section order and the G owner labels vary
  // across the symmetry group.  Render every invariant piece once (the
  // thread sections back to back in one buffer), then assemble one
  // candidate per permutation — the assembly is pure memcpy against a
  // full re-render per permutation.  The committed section is common to
  // every candidate, so it is appended to the winner only.
  thread_local std::string Sections;
  StateTable &Table = Spec->table();
  SmallVec<OpId, 16> GIds;
  SmallVec<uint32_t, 16> GOpKeys;
  for (const GlobalEntry &E : G.entries()) {
    GIds.push_back(E.Op.Id);
    GOpKeys.push_back(Table.opKey(E.Op));
  }
  SmallVec<uint32_t, 8> SectionEnd;
  Sections.clear();
  for (const ThreadState &Th : Threads) {
    {
      KeyWriter W(Sections, threadKeyBound(Th));
      renderThreadKey(W, Table, Th, GIds);
    }
    SectionEnd.push_back(static_cast<uint32_t>(Sections.size()));
  }
  auto SectionOf = [&](size_t T) {
    size_t Begin = T == 0 ? 0 : SectionEnd[T - 1];
    return std::string_view(Sections).substr(Begin, SectionEnd[T] - Begin);
  };

  SmallVec<uint32_t, 8> AtLabel;
  AtLabel.resize(Threads.size());
  for (size_t Pi = 0; Pi < Perms.size(); ++Pi) {
    const std::vector<TxId> &LabelOf = Perms[Pi];
    for (size_t T = 0; T < Threads.size(); ++T)
      AtLabel[LabelOf[T]] = static_cast<uint32_t>(T);
    std::string &Dst = Pi == 0 ? Out : Cur;
    Dst.clear();
    {
      KeyWriter W(Dst, Sections.size() + 4 + 9 * GIds.size());
      for (size_t L = 0; L < AtLabel.size(); ++L) {
        std::string_view Sec = SectionOf(AtLabel[L]);
        W.bytes(Sec.data(), Sec.size());
      }
      W.u32(static_cast<uint32_t>(GIds.size()));
      size_t I = 0;
      for (const GlobalEntry &E : G.entries()) {
        W.u32(GOpKeys[I++]);
        W.byte(E.Kind == GlobalKind::Committed ? 'C' : 'U');
        W.u32(LabelOf[E.Owner]);
      }
    }
    if (Pi != 0 && Cur < Out) {
      std::swap(Out, Cur);
      BestPerm = Pi;
    }
  }
  KeyWriter W(Out, 4);
  W.u32(committedKeyId());
}

void PushPullMachine::installForAnalysis(ThreadList NewThreads,
                                         GlobalLog NewG, OpId MaxUsedId) {
  assert(!Undo.Open && "installing a configuration under an open mark");
  Threads = std::move(NewThreads);
  G = std::move(NewG);
  for (ThreadState &Th : Threads)
    refoldPrefixes(*Spec, Th.L, 0);
  refoldPrefixes(*Spec, G, 0);
  Ids.reservePast(MaxUsedId);
  Trace = RuleTrace();
  Audit.clear();
  Committed = CowVec<CommittedTx>();
  CommittedKey = CommittedKeyMemo();
  CommitSeq = 0;
}

RuleFootprint pushpull::ruleFootprint(RuleKind K) {
  // Justification, criterion by criterion, against the evaluations above:
  //
  //   APP     (i) allowed under the *local* view L·x (localViewId) — own
  //           thread only.  Mutation: own c, sigma, L.
  //   UNAPP   structural flags on own L only.  Mutation: own c, sigma, L.
  //   PUSH    (i) movers against own L; (ii) right-movers against the
  //           *uncommitted G entries of other owners*; (iii) allowed under
  //           the global view (G's stored prefix).  (ii) and (iii) read G.
  //           Mutation: appends to G.
  //   UNPUSH  (i, gray) movers against *later G entries*; (ii) G minus the
  //           entry still allowed (G re-folded without it).  Reads and
  //           mutates (removes from) G.
  //   PULL    (i) entry not already in own L; (ii) own local view allows
  //           the pulled op; (iii, gray) right-movers against own L.  The
  //           criteria read only the *pulled entry* of G; the mutation is
  //           own-L append.  (The reduction layer refines this entry-wise:
  //           see sim/Reduction.h.)
  //   UNPULL  structural flags on own L only.
  //   CMT     (i) fin(c) — own; (ii) own L pushed and present in G; (iii)
  //           pulled entries' *G kinds* committed; (iv) commitOwned.
  //           Reads G; mutation reflags own G entries gUCmt -> gCmt.
  switch (K) {
  case RuleKind::App:
  case RuleKind::UnApp:
  case RuleKind::UnPull:
    return {/*ReadsGlobal=*/false, /*WritesGlobal=*/false};
  case RuleKind::Push:
    return {/*ReadsGlobal=*/true, /*WritesGlobal=*/true};
  case RuleKind::UnPush:
    return {/*ReadsGlobal=*/true, /*WritesGlobal=*/true};
  case RuleKind::Pull:
    return {/*ReadsGlobal=*/true, /*WritesGlobal=*/false};
  case RuleKind::Commit:
    return {/*ReadsGlobal=*/true, /*WritesGlobal=*/true};
  }
  return {};
}

std::vector<Operation> PushPullMachine::committedLog() const {
  return G.project(GlobalKind::Committed);
}

StateSet PushPullMachine::localView(TxId T) const {
  return Spec->setOf(localViewId(thread(T)));
}

bool PushPullMachine::quiescent() const {
  for (const ThreadState &Th : Threads)
    if (!Th.done())
      return false;
  return true;
}

std::string PushPullMachine::toString() const {
  std::string Out;
  for (const ThreadState &Th : Threads) {
    Out += "t" + std::to_string(Th.Tid) + ": ";
    if (Th.InTx)
      Out += "in-tx code=" + printCode(Th.Code) + " " + Th.L.toString();
    else
      Out += Th.Pending.empty() ? "done" : "idle";
    Out += "\n";
  }
  Out += G.toString() + "\n";
  return Out;
}

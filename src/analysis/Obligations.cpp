//===- analysis/Obligations.cpp - Criterion-obligation audit ---------------===//

#include "analysis/Obligations.h"

#include "lang/StepFin.h"
#include "spec/CounterSpec.h"
#include "spec/RegisterSpec.h"
#include "support/Tri.h"

#include <cassert>

using namespace pushpull;

//===----------------------------------------------------------------------===//
// ReferenceCriteria
//===----------------------------------------------------------------------===//

static std::vector<Operation> localOps(const ThreadState &Th) {
  return Th.L.ops();
}

static ReferenceVerdict pass() {
  ReferenceVerdict V;
  V.Enabled = true;
  return V;
}

static ReferenceVerdict fail(std::string Criterion, std::string Detail = "") {
  ReferenceVerdict V;
  V.FailedCriterion = std::move(Criterion);
  V.Detail = std::move(Detail);
  return V;
}

ReferenceVerdict ReferenceCriteria::judge(const MaterializedShape &Mat,
                                          const Firing &F) const {
  if (F.Tid >= Mat.Threads.size())
    return fail("structural", "no such thread");
  const ThreadState &Th = Mat.Threads[F.Tid];
  if (F.Kind == FiringKind::Begin)
    return !Th.InTx && !Th.Pending.empty()
               ? pass()
               : fail("structural", "BEGIN needs an idle thread with "
                                    "pending transactions");
  if (!Th.InTx)
    return fail("structural", "no transaction in progress");
  switch (F.Kind) {
  case FiringKind::App:
    return judgeApp(Mat, F);
  case FiringKind::UnApp:
    return judgeUnApp(Th);
  case FiringKind::Push:
    return judgePush(Mat, F.Tid, F.A);
  case FiringKind::UnPush:
    return judgeUnPush(Mat, F.Tid, F.A);
  case FiringKind::Pull:
    return judgePull(Mat, F.Tid, F.A);
  case FiringKind::UnPull:
    return judgeUnPull(Th, F.A);
  case FiringKind::Commit:
    return judgeCommit(Mat, Th);
  case FiringKind::Begin:
    break;
  }
  return fail("structural", "unknown firing kind");
}

ReferenceVerdict ReferenceCriteria::judgeApp(const MaterializedShape &M,
                                             const Firing &F) const {
  const ThreadState &Th = M.Threads[F.Tid];
  // APP criterion (i): (m, c') is drawn from step(c).
  const std::vector<StepItem> &Steps = step(Th.Code);
  if (F.A >= Steps.size())
    return fail("APP criterion (i)", "no such step choice");
  auto Call = Steps[F.A].Call.resolve(Th.Sigma);
  if (!Call)
    return fail("APP criterion (i)", "unbound variable in arguments");
  // APP criterion (ii): the local log allows the operation — there is an
  // allowed completion, and the probe names one of them.
  std::vector<Completion> Comps =
      Spec.completionsFrom(Spec.denote(localOps(Th)), *Call);
  if (F.B >= Comps.size())
    return fail("APP criterion (ii)",
                "local log does not allow the operation");
  // APP criterion (iii) — freshness of the id — is discharged by
  // construction on both sides (the machine's OpIdSource, this audit's
  // dense materialization), not judged per probe.
  return pass();
}

ReferenceVerdict ReferenceCriteria::judgeUnApp(const ThreadState &Th) const {
  if (Th.L.empty())
    return fail("structural", "local log is empty");
  if (Th.L[Th.L.size() - 1].Kind != LocalKind::NotPushed)
    return fail("UNAPP flag check", "last local entry is not npshd");
  return pass();
}

ReferenceVerdict ReferenceCriteria::judgePush(const MaterializedShape &M,
                                              TxId T, size_t Idx) const {
  const ThreadState &Th = M.Threads[T];
  if (Idx >= Th.L.size())
    return fail("structural", "no such local-log entry");
  const LocalEntry &E = Th.L[Idx];
  if (E.Kind != LocalKind::NotPushed)
    return fail("PUSH flag check", "entry is not npshd");
  const Operation &Op = E.Op;
  // PUSH criterion (i): op <| u for every unpushed u preceding it in L.
  for (size_t I = 0; I < Idx; ++I) {
    const LocalEntry &U = Th.L[I];
    if (U.Kind != LocalKind::NotPushed)
      continue;
    if (!holds(Movers.leftMover(Op, U.Op)))
      return fail("PUSH criterion (i)",
                  "cannot move left of unpushed " + U.Op.Call.toString());
  }
  // PUSH criterion (ii): x <| op for every uncommitted x of another
  // transaction (by ownership) in G.
  for (const GlobalEntry &GE : M.G.entries()) {
    if (GE.Kind != GlobalKind::Uncommitted || GE.Owner == T)
      continue;
    if (!holds(Movers.leftMover(GE.Op, Op)))
      return fail("PUSH criterion (ii)",
                  GE.Op.Call.toString() + " cannot move right of the push");
  }
  // PUSH criterion (iii): G . op is allowed.
  std::vector<Operation> GOps = M.G.ops();
  GOps.push_back(Op);
  if (!Spec.allowed(GOps))
    return fail("PUSH criterion (iii)", "G . op is not allowed");
  return pass();
}

ReferenceVerdict ReferenceCriteria::judgeUnPush(const MaterializedShape &M,
                                                TxId T, size_t Idx) const {
  const ThreadState &Th = M.Threads[T];
  if (Idx >= Th.L.size())
    return fail("structural", "no such local-log entry");
  const LocalEntry &E = Th.L[Idx];
  if (E.Kind != LocalKind::Pushed)
    return fail("UNPUSH flag check", "entry is not pshd");
  size_t GIdx = M.G.indexOf(E.Op.Id);
  if (GIdx == GlobalLog::npos)
    return fail("structural", "pshd entry missing from G");
  if (M.G[GIdx].Kind == GlobalKind::Committed)
    return fail("UNPUSH uncommitted check",
                "cannot unpush a committed operation");
  // UNPUSH criterion (i) (gray): op can move right past every later G
  // entry of other transactions (those not in our own L).
  if (EnforceGray) {
    for (size_t I = GIdx + 1; I < M.G.size(); ++I) {
      const GlobalEntry &Later = M.G[I];
      if (Th.L.contains(Later.Op.Id))
        continue;
      if (!holds(Movers.leftMover(E.Op, Later.Op)))
        return fail("UNPUSH criterion (i)",
                    "cannot move right past " + Later.Op.Call.toString());
    }
  }
  // UNPUSH criterion (ii): G without op is still allowed.
  std::vector<Operation> GOps;
  GOps.reserve(M.G.size() - 1);
  for (size_t I = 0; I < M.G.size(); ++I)
    if (I != GIdx)
      GOps.push_back(M.G[I].Op);
  if (!Spec.allowed(GOps))
    return fail("UNPUSH criterion (ii)", "G minus op is not allowed");
  return pass();
}

ReferenceVerdict ReferenceCriteria::judgePull(const MaterializedShape &M,
                                              TxId T, size_t Idx) const {
  const ThreadState &Th = M.Threads[T];
  if (Idx >= M.G.size())
    return fail("structural", "no such global-log entry");
  const Operation &Op = M.G[Idx].Op;
  // PULL criterion (i): not already in L.
  if (Th.L.contains(Op.Id))
    return fail("PULL criterion (i)", "operation already in L");
  // PULL criterion (ii): the local log allows op.
  std::vector<Operation> LOps = localOps(Th);
  LOps.push_back(Op);
  if (!Spec.allowed(LOps))
    return fail("PULL criterion (ii)", "L . op is not allowed");
  // PULL criterion (iii) (gray): every own local operation can move right
  // of op.
  if (EnforceGray) {
    for (const LocalEntry &E : Th.L.entries()) {
      if (E.Kind == LocalKind::Pulled)
        continue;
      if (!holds(Movers.leftMover(E.Op, Op)))
        return fail("PULL criterion (iii)",
                    E.Op.Call.toString() + " cannot move right of the pull");
    }
  }
  return pass();
}

ReferenceVerdict ReferenceCriteria::judgeUnPull(const ThreadState &Th,
                                                size_t Idx) const {
  if (Idx >= Th.L.size())
    return fail("structural", "no such local-log entry");
  if (Th.L[Idx].Kind != LocalKind::Pulled)
    return fail("UNPULL flag check", "entry is not pld");
  // UNPULL criterion (i): L without op is still allowed.
  if (!Spec.allowed(Th.L.opsOmitting(Idx)))
    return fail("UNPULL criterion (i)", "L minus op is not allowed");
  return pass();
}

ReferenceVerdict
ReferenceCriteria::judgeCommit(const MaterializedShape &M,
                               const ThreadState &Th) const {
  // CMT criterion (i): fin(c).
  if (!fin(Th.Code))
    return fail("CMT criterion (i)", "remaining code cannot terminate");
  // CMT criterion (ii): everything applied was pushed, and L c= G.
  for (const LocalEntry &E : Th.L.entries())
    if (E.Kind == LocalKind::NotPushed)
      return fail("CMT criterion (ii)", "unpushed operations remain in L");
  if (!M.G.containsAll(Th.L))
    return fail("CMT criterion (ii)", "a pulled operation is no longer in G");
  // CMT criterion (iii): every pulled operation is committed in G.
  for (const LocalEntry &E : Th.L.entries()) {
    if (E.Kind != LocalKind::Pulled)
      continue;
    size_t GIdx = M.G.indexOf(E.Op.Id);
    if (GIdx == GlobalLog::npos || M.G[GIdx].Kind != GlobalKind::Committed)
      return fail("CMT criterion (iii)",
                  "pulled operation belongs to an uncommitted transaction");
  }
  return pass();
}

//===----------------------------------------------------------------------===//
// Probe enumeration
//===----------------------------------------------------------------------===//

static bool maskHas(uint32_t Mask, FiringKind K) {
  // FiringKind is RuleKind shifted by the extra Begin element.
  assert(K != FiringKind::Begin && "BEGIN is not a Figure 5 rule");
  return Mask & (1u << (static_cast<unsigned>(K) - 1));
}

std::vector<Firing> pushpull::criterionProbes(const MaterializedShape &Mat,
                                              TxId Tid,
                                              const SequentialSpec &Spec,
                                              uint32_t RuleMask,
                                              bool PullsUncommitted) {
  std::vector<Firing> Out;
  if (Tid >= Mat.Threads.size())
    return Out;
  const ThreadState &Th = Mat.Threads[Tid];
  auto add = [&](FiringKind K, uint32_t A = 0, uint32_t B = 0) {
    Firing F;
    F.Tid = Tid;
    F.Kind = K;
    F.A = A;
    F.B = B;
    Out.push_back(F);
  };
  if (!Th.InTx) {
    if (!Th.Pending.empty())
      add(FiringKind::Begin);
    return Out;
  }
  if (maskHas(RuleMask, FiringKind::App)) {
    const std::vector<StepItem> &Steps = step(Th.Code);
    for (size_t SI = 0; SI < Steps.size(); ++SI) {
      auto Call = Steps[SI].Call.resolve(Th.Sigma);
      if (!Call)
        continue;
      size_t NComps =
          Spec.completionsFrom(Spec.denote(Th.L.ops()), *Call).size();
      // Every allowed completion, plus one out-of-range probe: both sides
      // must reject a completion index the local view does not permit.
      for (size_t CI = 0; CI <= NComps; ++CI)
        add(FiringKind::App, static_cast<uint32_t>(SI),
            static_cast<uint32_t>(CI));
    }
  }
  if (maskHas(RuleMask, FiringKind::UnApp) && !Th.L.empty())
    add(FiringKind::UnApp);
  for (size_t I = 0; I < Th.L.size(); ++I) {
    if (maskHas(RuleMask, FiringKind::Push))
      add(FiringKind::Push, static_cast<uint32_t>(I));
    if (maskHas(RuleMask, FiringKind::UnPush))
      add(FiringKind::UnPush, static_cast<uint32_t>(I));
    if (maskHas(RuleMask, FiringKind::UnPull))
      add(FiringKind::UnPull, static_cast<uint32_t>(I));
  }
  if (maskHas(RuleMask, FiringKind::Pull))
    for (size_t I = 0; I < Mat.G.size(); ++I) {
      if (!PullsUncommitted && Mat.G[I].Kind == GlobalKind::Uncommitted)
        continue;
      add(FiringKind::Pull, static_cast<uint32_t>(I));
    }
  if (maskHas(RuleMask, FiringKind::Commit))
    add(FiringKind::Commit);
  return Out;
}

//===----------------------------------------------------------------------===//
// The audit
//===----------------------------------------------------------------------===//

std::string
Divergence::describe(const std::vector<Operation> &Alphabet) const {
  std::string Out = MachineApplied
                        ? "UNSOUND: machine fired " + Probe.toString() +
                              " but " + RefFailedCriterion + " fails"
                        : "INCOMPLETE: machine rejected " + Probe.toString() +
                              " though all criteria hold";
  if (!RefDetail.empty())
    Out += " (" + RefDetail + ")";
  Out += "\n  at " + Shape.describe(Alphabet);
  return Out;
}

CriterionAuditReport
pushpull::auditCriteria(const CriterionAuditConfig &Config) {
  assert(Config.Spec && "audit needs a specification");
  const SequentialSpec &Spec = *Config.Spec;
  CriterionAuditReport Report;
  Report.Alphabet = shapeAlphabet(Spec, Config.Scope.MaxAlphabet);
  const std::vector<Operation> &Alphabet = Report.Alphabet;

  MoverChecker Movers(Spec);
  ReferenceCriteria Ref(Spec, Movers, Config.EnforceGray);

  MachineConfig MC;
  MC.Level = ValidationLevel::Criteria;
  MC.EnforceGrayCriteria = Config.EnforceGray;
  MC.RecordAudit = false;
  MC.RecordTrace = false;
  MC.DisabledCriterion = Config.DisabledCriterion;
  PushPullMachine Base(Spec, Movers, MC);

  std::string InjectLine = Config.DisabledCriterion;
  std::string EngineLine = "engine " + Config.EngineName;

  enumerateShapes(Config.Scope, Alphabet.size(), [&](const AbstractShape &S) {
    ++Report.ShapesVisited;
    if (Config.MaxShapes && Report.ShapesVisited > Config.MaxShapes)
      return false;
    if (!shapeDenotable(S, Alphabet, Spec))
      return true;
    ++Report.ShapesAudited;
    MaterializedShape Mat = materializeShape(S, Alphabet);
    installShape(Mat, Base);
    for (const Firing &F : criterionProbes(Mat, /*Tid=*/0, Spec,
                                           Config.RuleMask,
                                           Config.PullsUncommitted)) {
      ++Report.ProbesRun;
      PushPullMachine::UndoMark Mark = Base.mark();
      bool Applied = applyFiring(Base, F);
      Base.rollbackTo(Mark);
      ReferenceVerdict V = Ref.judge(Mat, F);
      if (Applied == V.Enabled)
        continue;
      Divergence D;
      D.Shape = S;
      D.Probe = F;
      D.MachineApplied = Applied;
      D.RefFailedCriterion = V.FailedCriterion;
      D.RefDetail = V.Detail;
      D.Witness = renderShapeWitness(S, Alphabet, Config.SpecLine, EngineLine,
                                     InjectLine,
                                     D.describe(Alphabet).substr(
                                         0, D.describe(Alphabet).find('\n')));
      (Applied ? Report.Unsound : Report.Incomplete).push_back(std::move(D));
      if (Config.StopAtFirstDivergence)
        return false;
    }
    return true;
  });
  return Report;
}

//===----------------------------------------------------------------------===//
// Negative battery
//===----------------------------------------------------------------------===//

const std::vector<std::string> &pushpull::injectableCriteria() {
  static const std::vector<std::string> Names = {
      "PUSH criterion (i)",   "PUSH criterion (ii)",  "PUSH criterion (iii)",
      "UNPUSH criterion (i)", "UNPUSH criterion (ii)", "PULL criterion (ii)",
      "PULL criterion (iii)", "UNPULL criterion (i)",
  };
  return Names;
}

std::vector<ConvictionResult>
pushpull::runNegativeBattery(const ShapeScope &Scope) {
  // The battery's spec ladder: tiny instances keep the mover and
  // denotation state spaces exact and fast.  A register alphabet convicts
  // most criteria; "PUSH criterion (iii)" needs an operation that is
  // locally allowed yet disallowed after G (the counter's modular wrap) —
  // see DESIGN.md §13.
  struct SpecCase {
    std::string Kind;
    std::string SpecLine;
    std::shared_ptr<const SequentialSpec> Spec;
  };
  std::vector<SpecCase> Specs;
  Specs.push_back({"register", "spec register name=mem regs=1 vals=2",
                   std::make_shared<RegisterSpec>("mem", 1, 2)});
  Specs.push_back({"counter", "spec counter name=c counters=1 mod=2",
                   std::make_shared<CounterSpec>("c", 1, 2)});

  std::vector<ConvictionResult> Out;
  for (const std::string &Criterion : injectableCriteria()) {
    ConvictionResult R;
    R.Criterion = Criterion;
    // Gray handling: the gray criteria themselves are only evaluated when
    // gray enforcement is on; "UNPUSH criterion (ii)" is masked by gray
    // criterion (i) on well-formed shapes, so its injection is audited
    // with gray enforcement off (both machine and reference).
    bool Gray = Criterion != "UNPUSH criterion (ii)";
    R.EnforcedGray = Gray;
    for (const SpecCase &SC : Specs) {
      CriterionAuditConfig C;
      C.Scope = Scope;
      C.Spec = SC.Spec.get();
      C.SpecLine = SC.SpecLine;
      C.EnforceGray = Gray;
      C.DisabledCriterion = Criterion;
      C.StopAtFirstDivergence = true;
      CriterionAuditReport Rep = auditCriteria(C);
      R.ShapesAudited += Rep.ShapesAudited;
      R.ProbesRun += Rep.ProbesRun;
      if (!Rep.Unsound.empty()) {
        R.Convicted = true;
        R.SpecKind = SC.Kind;
        R.Witness = Rep.Unsound.front();
        R.Alphabet = Rep.Alphabet;
        break;
      }
    }
    Out.push_back(std::move(R));
  }
  return Out;
}

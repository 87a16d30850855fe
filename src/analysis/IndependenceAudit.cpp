//===- analysis/IndependenceAudit.cpp - Reduction soundness audit ----------===//

#include "analysis/IndependenceAudit.h"

#include "core/Machine.h"

#include <cassert>

using namespace pushpull;

static FiringFootprint footprintOf(const PushPullMachine &M, const Firing &F) {
  FiringFootprint FP;
  if (F.Kind == FiringKind::Begin)
    return FP; // BEGIN reads and writes only its own thread's state.
  RuleFootprint RF =
      ruleFootprint(static_cast<RuleKind>(static_cast<unsigned>(F.Kind) - 1));
  FP.ReadsG = RF.ReadsGlobal;
  FP.WritesG = RF.WritesGlobal;
  if (F.Kind == FiringKind::Pull && F.A < M.global().size()) {
    const GlobalEntry &GE = M.global()[F.A];
    FP.PullOwner = GE.Owner;
    FP.PullCommitted = GE.Kind == GlobalKind::Committed;
  }
  return FP;
}

std::vector<Candidate> pushpull::allCandidates(const PushPullMachine &M) {
  std::vector<Candidate> Out;
  auto add = [&](TxId Tid, FiringKind K, uint32_t A = 0, uint32_t B = 0) {
    Candidate C;
    C.F.Tid = Tid;
    C.F.Kind = K;
    C.F.A = A;
    C.F.B = B;
    C.FP = footprintOf(M, C.F);
    Out.push_back(C);
  };
  for (const ThreadState &Th : M.threads()) {
    TxId T = Th.Tid;
    if (!Th.InTx) {
      if (!Th.Pending.empty())
        add(T, FiringKind::Begin);
      continue;
    }
    for (const AppChoice &C : M.appChoices(T))
      for (size_t CI = 0; CI < C.Completions.size(); ++CI)
        add(T, FiringKind::App, static_cast<uint32_t>(C.StepIdx),
            static_cast<uint32_t>(CI));
    if (!Th.L.empty())
      add(T, FiringKind::UnApp);
    for (size_t I = 0; I < Th.L.size(); ++I) {
      switch (Th.L[I].Kind) {
      case LocalKind::NotPushed:
        add(T, FiringKind::Push, static_cast<uint32_t>(I));
        break;
      case LocalKind::Pushed:
        add(T, FiringKind::UnPush, static_cast<uint32_t>(I));
        break;
      case LocalKind::Pulled:
        add(T, FiringKind::UnPull, static_cast<uint32_t>(I));
        break;
      }
    }
    for (size_t I = 0; I < M.global().size(); ++I)
      if (!Th.L.contains(M.global()[I].Op.Id))
        add(T, FiringKind::Pull, static_cast<uint32_t>(I));
    add(T, FiringKind::Commit);
  }
  return Out;
}

/// Fire \p X then \p Y on \p M under an undo mark and render the
/// configuration reached into \p Key; \p M is rolled back either way.
/// Returns false, with \p Reason filled, when either firing is rejected.
static bool fireBoth(PushPullMachine &M, const Firing &X, const Firing &Y,
                     std::string &Key, std::string &Reason) {
  PushPullMachine::UndoMark Mark = M.mark();
  bool Fired = false;
  if (!applyFiring(M, X)) {
    Reason = X.toString() + " no longer enabled (probe race)";
  } else if (!applyFiring(M, Y)) {
    Reason = Y.toString() + " disabled after " + X.toString();
  } else {
    M.configKeyInto(Key);
    Fired = true;
  }
  M.rollbackTo(Mark);
  return Fired;
}

/// One diamond check.  Returns true and leaves \p Reason empty on
/// commutation; otherwise fills \p Reason.  The two orders' configuration
/// keys are rendered into \p KeyAB and \p KeyBA, buffers the caller reuses
/// across pairs (pairs are checked by the million; buffers that keep their
/// capacity make the comparison allocation-free).
static bool diamond(PushPullMachine &M, const Firing &A, const Firing &B,
                    std::string &KeyAB, std::string &KeyBA,
                    std::string &Reason) {
  if (!fireBoth(M, A, B, KeyAB, Reason) || !fireBoth(M, B, A, KeyBA, Reason))
    return false;
  if (KeyAB != KeyBA) {
    Reason = "orders " + A.toString() + ";" + B.toString() +
             " and reverse reach different configurations";
    return false;
  }
  return true;
}

size_t pushpull::checkIndependenceAt(PushPullMachine &M,
                                     std::vector<std::string> &Failures,
                                     size_t MaxPairs) {
  std::vector<Candidate> Cands = allCandidates(M);
  // Keep only the enabled ones (each fired in place and rolled back).
  std::vector<Candidate> Enabled;
  for (const Candidate &C : Cands) {
    PushPullMachine::UndoMark Mark = M.mark();
    if (applyFiring(M, C.F))
      Enabled.push_back(C);
    M.rollbackTo(Mark);
  }
  size_t Pairs = 0;
  std::string KeyAB, KeyBA;
  for (size_t I = 0; I < Enabled.size(); ++I)
    for (size_t J = I + 1; J < Enabled.size(); ++J) {
      const Candidate &A = Enabled[I], &B = Enabled[J];
      if (A.F.Tid == B.F.Tid)
        continue; // The relation is only claimed across threads.
      if (!independentFirings(A, B))
        continue;
      if (MaxPairs && Pairs >= MaxPairs)
        return Pairs;
      ++Pairs;
      std::string Reason;
      if (!diamond(M, A.F, B.F, KeyAB, KeyBA, Reason))
        Failures.push_back("independent pair " + A.F.toString() + " x " +
                           B.F.toString() + ": " + Reason);
    }
  return Pairs;
}

IndependenceAuditReport
pushpull::auditIndependence(const IndependenceAuditConfig &Config) {
  assert(Config.Spec && "audit needs a specification");
  const SequentialSpec &Spec = *Config.Spec;
  IndependenceAuditReport Report;

  ShapeScope Scope = Config.Scope;
  // BEGIN firings and cross-thread APPs are part of the audited relation.
  Scope.IncludeIdle = true;
  Scope.OtherCodeCalls = true;

  Report.Alphabet = shapeAlphabet(Spec, Scope.MaxAlphabet);
  const std::vector<Operation> &Alphabet = Report.Alphabet;

  MoverChecker Movers(Spec);
  MachineConfig MC;
  MC.RecordAudit = false;
  MC.RecordTrace = false;
  PushPullMachine Base(Spec, Movers, MC);

  enumerateShapes(Scope, Alphabet.size(), [&](const AbstractShape &S) {
    ++Report.ShapesVisited;
    if (Config.MaxShapes && Report.ShapesVisited > Config.MaxShapes)
      return false;
    if (!shapeDenotable(S, Alphabet, Spec))
      return true;
    ++Report.ShapesAudited;
    MaterializedShape Mat = materializeShape(S, Alphabet);
    installShape(Mat, Base);
    std::vector<std::string> Failures;
    Report.PairsChecked += checkIndependenceAt(Base, Failures);
    for (std::string &F : Failures) {
      IndependenceViolation V;
      V.Shape = S;
      V.Reason = std::move(F);
      Report.Violations.push_back(std::move(V));
      if (Config.StopAtFirstViolation)
        return false;
    }
    return true;
  });
  return Report;
}

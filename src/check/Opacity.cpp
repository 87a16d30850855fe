//===- check/Opacity.cpp - Section 6.1: opacity as a fragment --------------===//

#include "check/Opacity.h"

#include "lang/StepFin.h"

using namespace pushpull;

OpacityReport pushpull::classifyTrace(const RuleTrace &T) {
  OpacityReport Out;
  for (const TraceEvent &E : T) {
    if (E.Rule != RuleKind::Pull)
      continue;
    ++Out.TotalPulls;
    if (E.PulledUncommitted) {
      ++Out.UncommittedPulls;
      Out.InOpaqueFragment = false;
    }
  }
  return Out;
}

Tri pushpull::pullCommutationSafe(const PushPullMachine &M, TxId T,
                                  const Operation &Op) {
  const ThreadState &Th = M.thread(T);
  if (!Th.InTx)
    return Tri::Yes; // Nothing left to execute.

  const std::vector<Operation> &Probes = M.spec().probes();
  MoverChecker &Movers = M.movers();

  Tri Out = Tri::Yes;
  for (const MethodExpr &ME : reachableMethods(Th.Code)) {
    auto Call = ME.resolve(Th.Sigma);
    if (!Call) {
      // Arguments depend on results not yet bound: we cannot enumerate the
      // operations T may perform, so be conservative.
      Out = triAnd(Out, Tri::Unknown);
      continue;
    }
    bool Matched = false;
    for (const Operation &P : Probes) {
      if (P.Call != *Call)
        continue;
      Matched = true;
      // "Commutes" here means movable in both orders.
      Out = triAnd(Out, Movers.leftMover(Op, P));
      Out = triAnd(Out, Movers.leftMover(P, Op));
      if (Out == Tri::No)
        return Out;
    }
    if (!Matched)
      Out = triAnd(Out, Tri::Unknown);
  }
  return Out;
}

//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//

#ifndef PUSHPULL_TESTS_TESTUTIL_H
#define PUSHPULL_TESTS_TESTUTIL_H

#include "core/Mover.h"
#include "core/Op.h"
#include "core/Spec.h"
#include "spec/KeyedSpec.h"

#include <string>
#include <vector>

namespace pushpull {
namespace testutil {

/// Build an operation record with explicit id.
inline Operation mkOp(OpId Id, const std::string &Obj,
                      const std::string &Mth, std::vector<Value> Args = {},
                      std::optional<Value> Result = std::nullopt) {
  Operation O;
  O.Call = {Obj, Mth, std::move(Args)};
  O.Result = Result;
  O.Id = Id;
  return O;
}

/// Cross-validate a spec's leftMoverHint against the semantic decision
/// procedure on every ordered pair of probe operations.  Returns the list
/// of disagreements rendered as strings (empty = sound and, where the
/// hint answers, exact).  A KeyedSpec's hint must also answer every pair
/// of single-key operations on its object with valid keys (only the bank's
/// two-key transfer may stay Unknown): a pair it leaves Unknown while the
/// semantic check decides it is reported too, and so is a reachable family
/// too large for the semantic check to decide anything.
inline std::vector<std::string> hintDisagreements(const SequentialSpec &S) {
  std::vector<std::string> Out;
  MoverChecker Movers(S);
  const auto *Keyed = dynamic_cast<const KeyedSpec *>(&S);
  if (Keyed && !Movers.family().Exact)
    Out.push_back("reachable family inexact: nothing decided");
  auto OneKey = [&](const Operation &Op) {
    return Keyed->ownsKey(Op.Call) && Op.Call.Method != "transfer";
  };
  std::vector<Operation> Probes = S.probeOps();
  for (const Operation &A : Probes)
    for (const Operation &B : Probes) {
      Tri Hint = S.leftMoverHint(A, B);
      if (Hint == Tri::Unknown && !(Keyed && OneKey(A) && OneKey(B)))
        continue;
      Tri Sem = Movers.leftMoverSemantic(A, B);
      if (Sem == Tri::Unknown)
        continue; // Semantic engine hit a bound; nothing to compare.
      if (Hint != Sem)
        Out.push_back(A.toString() + " <| " + B.toString() + ": hint=" +
                      toString(Hint) + " semantic=" + toString(Sem));
    }
  return Out;
}

} // namespace testutil
} // namespace pushpull

#endif // PUSHPULL_TESTS_TESTUTIL_H

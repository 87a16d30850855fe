//===- core/Mover.cpp - Executable Definition 4.1 ---------------------------===//

#include "core/Mover.h"

#include <deque>
#include <unordered_set>

using namespace pushpull;

MoverChecker::MoverChecker(const SequentialSpec &Spec, MoverLimits Limits,
                           PrecongruenceLimits PreLimits)
    : Spec(Spec), Limits(Limits), Pre(Spec, PreLimits) {}

void MoverChecker::ensureReachable() {
  if (ReachableComputed)
    return;
  ReachableComputed = true;
  ReachableIsExact = true;

  std::unordered_set<StateSetId> Seen;
  std::deque<StateSetId> Frontier;
  const std::vector<Operation> &Probes = Spec.probes();
  const std::vector<OpKeyId> &ProbeKeys = Spec.probeKeys();

  StateSetId Init = Spec.initialId();
  Seen.insert(Init);
  Reachable.push_back(Init);
  Frontier.push_back(Init);

  while (!Frontier.empty()) {
    if (Reachable.size() >= Limits.MaxReachableSets) {
      ReachableIsExact = false;
      break;
    }
    StateSetId S = Frontier.front();
    Frontier.pop_front();
    for (size_t I = 0; I < Probes.size(); ++I) {
      StateSetId N = Spec.applyOpId(S, Probes[I], ProbeKeys[I]);
      if (Spec.table().setEmpty(N))
        continue;
      if (!Seen.insert(N).second)
        continue;
      Reachable.push_back(N);
      Frontier.push_back(N);
    }
  }
}

Tri MoverChecker::leftMover(const Operation &A, const Operation &B) {
  Tri Hint = Spec.leftMoverHint(A, B);
  if (Hint != Tri::Unknown)
    return Hint;
  return leftMoverSemantic(A, B);
}

Tri MoverChecker::leftMoverSemantic(const Operation &A, const Operation &B) {
  // One interning lookup per operand (the only string work on this path),
  // then the memo key is a single integer.
  OpKeyId KA = Spec.table().opKey(A), KB = Spec.table().opKey(B);
  uint64_t Key = (static_cast<uint64_t>(KA) << 32) | KB;
  auto It = Memo.find(Key);
  if (It != Memo.end()) {
    ++MemoHits;
    return It->second;
  }
  ++MemoMisses;

  ensureReachable();
  Tri Out = Tri::Yes;
  for (StateSetId S : Reachable) {
    StateSetId AB = Spec.applyOpId(Spec.applyOpId(S, A, KA), B, KB);
    if (Spec.table().setEmpty(AB))
      continue; // l.A.B not allowed from here: vacuously fine.
    StateSetId BA = Spec.applyOpId(Spec.applyOpId(S, B, KB), A, KA);
    Tri V = Pre.check(AB, BA);
    if (V == Tri::No) {
      Out = Tri::No;
      break;
    }
    if (V == Tri::Unknown)
      Out = Tri::Unknown;
  }
  // If the enumeration was truncated, a Yes only covers the enumerated
  // prefix of reachable logs.
  if (Out == Tri::Yes && !ReachableIsExact)
    Out = Tri::Unknown;

  Memo.emplace(Key, Out);
  return Out;
}

Tri MoverChecker::leftMoverAll(const std::vector<Operation> &As,
                               const Operation &B) {
  Tri Out = Tri::Yes;
  for (const Operation &A : As) {
    Out = triAnd(Out, leftMover(A, B));
    if (Out == Tri::No)
      return Out;
  }
  return Out;
}

Tri MoverChecker::leftMoverOverAll(const Operation &A,
                                   const std::vector<Operation> &Bs) {
  Tri Out = Tri::Yes;
  for (const Operation &B : Bs) {
    Out = triAnd(Out, leftMover(A, B));
    if (Out == Tri::No)
      return Out;
  }
  return Out;
}

bool MoverChecker::reachableExact() {
  ensureReachable();
  return ReachableIsExact;
}

size_t MoverChecker::reachableCount() {
  ensureReachable();
  return Reachable.size();
}

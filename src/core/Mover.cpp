//===- core/Mover.cpp - Executable Definition 4.1 ---------------------------===//

#include "core/Mover.h"

#include <algorithm>
#include <unordered_set>

using namespace pushpull;

MoverChecker::MoverChecker(const SequentialSpec &Spec, MoverLimits Limits,
                           PrecongruenceLimits PreLimits)
    : Spec(Spec), Limits(Limits), Pre(Spec, PreLimits) {}

const ReachableFamily &MoverChecker::family() {
  if (FamilyComputed)
    return Fam;
  FamilyComputed = true;

  const std::vector<Operation> &Probes = Spec.probes();
  const std::vector<OpKeyId> &ProbeKeys = Spec.probeKeys();
  std::unordered_set<StateSetId> Seen;
  StateSetId Init = Spec.initialId();
  Seen.insert(Init);
  Fam.Sets.push_back(Init);
  Fam.Parent.push_back(-1);
  Fam.ParentOp.push_back(0);

  Fam.Exact = true;
  for (size_t Head = 0; Head < Fam.Sets.size(); ++Head)
    for (size_t Pi = 0; Pi < Probes.size(); ++Pi) {
      StateSetId N = Spec.applyOpId(Fam.Sets[Head], Probes[Pi], ProbeKeys[Pi]);
      if (Spec.table().setEmpty(N) || !Seen.insert(N).second)
        continue;
      if (Fam.Sets.size() >= Limits.MaxReachableSets) {
        // A new member exists past the bound: the family is a prefix.
        Fam.Exact = false;
        return Fam;
      }
      Fam.Sets.push_back(N);
      Fam.Parent.push_back(static_cast<int32_t>(Head));
      Fam.ParentOp.push_back(static_cast<uint32_t>(Pi));
    }
  std::vector<StateSetId> Sorted = Fam.Sets;
  std::sort(Sorted.begin(), Sorted.end());
  Fam.Sorted =
      std::make_shared<const std::vector<StateSetId>>(std::move(Sorted));
  return Fam;
}

std::vector<Operation>
pushpull::witnessPrefix(const ReachableFamily &F, size_t Index,
                        const std::vector<Operation> &Probes) {
  std::vector<Operation> Prefix;
  for (int64_t I = static_cast<int64_t>(Index); I > 0;
       I = F.Parent[static_cast<size_t>(I)])
    Prefix.push_back(Probes[F.ParentOp[static_cast<size_t>(I)]]);
  std::reverse(Prefix.begin(), Prefix.end());
  return Prefix;
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

  const ReachableFamily &F = family();
  Tri Out = Tri::Yes;
  for (StateSetId S : F.Sets) {
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
  if (Out == Tri::Yes && !F.Exact)
    Out = Tri::Unknown;

  Memo.emplace(Key, Out);
  return Out;
}

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

namespace {
size_t memoHome(uint64_t Pair, size_t Mask) {
  return static_cast<size_t>((Pair * 0x9e3779b97f4a7c15ull) >> 32) & Mask;
}
} // namespace

MoverChecker::MemoSlot &MoverChecker::memoSlot(OpKeyId KA, OpKeyId KB) {
  const uint64_t Pair = (static_cast<uint64_t>(KA) << 32) | KB;
  if (!Memo.empty()) {
    const size_t Mask = Memo.size() - 1;
    for (size_t I = memoHome(Pair, Mask);; I = (I + 1) & Mask) {
      if (Memo[I].Pair == Pair)
        return Memo[I];
      if (Memo[I].Pair == EmptyPair)
        break;
    }
  }
  if ((MemoUsed + 1) * 4 > Memo.size() * 3) {
    std::vector<MemoSlot> Old = std::move(Memo);
    Memo.assign(Old.empty() ? 64 : Old.size() * 2, MemoSlot());
    const size_t Mask = Memo.size() - 1;
    for (const MemoSlot &S : Old) {
      if (S.Pair == EmptyPair)
        continue;
      size_t I = memoHome(S.Pair, Mask);
      while (Memo[I].Pair != EmptyPair)
        I = (I + 1) & Mask;
      Memo[I] = S;
    }
  }
  const size_t Mask = Memo.size() - 1;
  size_t I = memoHome(Pair, Mask);
  while (Memo[I].Pair != EmptyPair)
    I = (I + 1) & Mask;
  Memo[I].Pair = Pair;
  ++MemoUsed;
  return Memo[I];
}

Tri MoverChecker::leftMover(const Operation &A, const Operation &B) {
  OpKeyId KA = Spec.table().opKey(A), KB = Spec.table().opKey(B);
  if (uint8_t Final = memoSlot(KA, KB).Final)
    return static_cast<Tri>(Final - 1);
  Tri V = Spec.leftMoverHint(A, B);
  if (V == Tri::Unknown)
    V = semantic(A, B, KA, KB);
  // Looked up again rather than held across the hint and the semantic
  // check: an insertion may move the slots.
  memoSlot(KA, KB).Final = static_cast<uint8_t>(static_cast<uint8_t>(V) + 1);
  return V;
}

Tri MoverChecker::leftMoverSemantic(const Operation &A, const Operation &B) {
  return semantic(A, B, Spec.table().opKey(A), Spec.table().opKey(B));
}

Tri MoverChecker::semantic(const Operation &A, const Operation &B, OpKeyId KA,
                           OpKeyId KB) {
  if (uint8_t Known = memoSlot(KA, KB).Semantic) {
    ++MemoHits;
    return static_cast<Tri>(Known - 1);
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

  memoSlot(KA, KB).Semantic =
      static_cast<uint8_t>(static_cast<uint8_t>(Out) + 1);
  return Out;
}

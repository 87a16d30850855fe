//===- analysis/Commutativity.cpp - Certified commutation analysis ----------===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "analysis/Commutativity.h"

#include <algorithm>
#include <unordered_map>

using namespace pushpull;

std::string pushpull::toString(MoverClass C) {
  switch (C) {
  case MoverClass::Both:
    return "both";
  case MoverClass::Left:
    return "left";
  case MoverClass::Right:
    return "right";
  case MoverClass::Non:
    return "non";
  }
  return "?";
}

std::string pushpull::toString(CertKind K) {
  switch (K) {
  case CertKind::StrongDiamond:
    return "diamond";
  case CertKind::Counterexample:
    return "counterexample";
  case CertKind::ViaPrecongruence:
    return "precongruence";
  case CertKind::Unknown:
    return "unknown";
  }
  return "?";
}

ReachableFamily
pushpull::computeReachableFamily(const SequentialSpec &Spec,
                                 const std::vector<Operation> &Probes,
                                 size_t MaxSets) {
  ReachableFamily F;
  std::vector<OpKeyId> Keys;
  Keys.reserve(Probes.size());
  for (const Operation &P : Probes)
    Keys.push_back(Spec.table().opKey(P));

  std::unordered_map<StateSetId, size_t> Seen;
  StateSetId Init = Spec.initialId();
  F.Sets.push_back(Init);
  F.Parent.push_back(-1);
  F.ParentOp.push_back(0);
  Seen.emplace(Init, 0);

  F.Exact = true;
  for (size_t Head = 0; Head < F.Sets.size(); ++Head) {
    StateSetId S = F.Sets[Head];
    for (size_t Pi = 0; Pi < Probes.size(); ++Pi) {
      StateSetId Img = Spec.applyOpId(S, Probes[Pi], Keys[Pi]);
      if (Img == StateTable::EmptySetId || Seen.count(Img))
        continue;
      if (F.Sets.size() >= MaxSets) {
        // A new member exists beyond the bound: the family is a sample.
        F.Exact = false;
        return F;
      }
      Seen.emplace(Img, F.Sets.size());
      F.Sets.push_back(Img);
      F.Parent.push_back(static_cast<int32_t>(Head));
      F.ParentOp.push_back(static_cast<uint32_t>(Pi));
    }
  }
  return F;
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

/// Does the A/B diamond close at \p S?  The strong-commutation local
/// condition: both orders denote the same interned set, and two
/// individually allowed operations stay jointly allowed.
bool diamondClosesAt(const SequentialSpec &Spec, StateSetId S,
                     const Operation &A, OpKeyId KA, const Operation &B,
                     OpKeyId KB) {
  StateSetId SA = Spec.applyOpId(S, A, KA);
  StateSetId SB = Spec.applyOpId(S, B, KB);
  StateSetId AB = Spec.applyOpId(SA, B, KB);
  StateSetId BA = Spec.applyOpId(SB, A, KA);
  if (AB != BA)
    return false;
  if (SA != StateTable::EmptySetId && SB != StateTable::EmptySetId &&
      AB == StateTable::EmptySetId)
    return false;
  return true;
}

} // namespace

CertCheckResult
pushpull::verifyStrongCertificate(const SequentialSpec &Spec,
                                  const Operation &A, const Operation &B,
                                  const std::vector<Operation> &Probes,
                                  const PairCertificate &Cert) {
  CertCheckResult R;
  if (Cert.Kind != CertKind::StrongDiamond) {
    R.Detail = "not a diamond certificate";
    return R;
  }
  const std::vector<StateSetId> &Fam = Cert.Family;
  if (Fam.empty()) {
    R.Detail = "empty family";
    return R;
  }
  for (size_t I = 1; I < Fam.size(); ++I)
    if (Fam[I - 1] >= Fam[I]) {
      R.Detail = "family not sorted/unique";
      return R;
    }
  auto Member = [&Fam](StateSetId Id) {
    return std::binary_search(Fam.begin(), Fam.end(), Id);
  };
  if (!Member(Spec.initialId())) {
    R.Detail = "initial denotation not in family";
    return R;
  }
  // Closure under the probe alphabet *and* under A/B themselves (the
  // certificate must not rely on A/B being probe members).
  std::vector<const Operation *> Alphabet;
  Alphabet.reserve(Probes.size() + 2);
  for (const Operation &P : Probes)
    Alphabet.push_back(&P);
  Alphabet.push_back(&A);
  Alphabet.push_back(&B);
  OpKeyId KA = Spec.table().opKey(A), KB = Spec.table().opKey(B);
  for (StateSetId S : Fam)
    for (const Operation *Op : Alphabet) {
      StateSetId Img = Spec.applyOpId(S, *Op);
      if (Img != StateTable::EmptySetId && !Member(Img)) {
        R.Detail = "family not closed under '" + Op->toString() + "'";
        return R;
      }
    }
  for (StateSetId S : Fam)
    if (!diamondClosesAt(Spec, S, A, KA, B, KB)) {
      R.Detail = "diamond fails at family member " + std::to_string(S);
      return R;
    }
  R.Ok = true;
  R.Detail = "diamond closed over " + std::to_string(Fam.size()) + " sets";
  return R;
}

CertCheckResult pushpull::verifyCounterexample(const SequentialSpec &Spec,
                                               const Operation &A,
                                               const Operation &B,
                                               const PairCertificate &Cert) {
  CertCheckResult R;
  if (Cert.Kind != CertKind::Counterexample) {
    R.Detail = "not a counterexample certificate";
    return R;
  }
  StateSetId S = Spec.denoteId(Cert.Witness);
  OpKeyId KA = Spec.table().opKey(A), KB = Spec.table().opKey(B);
  if (diamondClosesAt(Spec, S, A, KA, B, KB)) {
    R.Detail = "witness prefix does not break the diamond";
    return R;
  }
  R.Ok = true;
  R.Detail =
      "diamond fails after " + std::to_string(Cert.Witness.size()) + " ops";
  return R;
}

CommutativityAnalysis::CommutativityAnalysis(const SequentialSpec &Spec,
                                             MoverChecker &Movers,
                                             size_t MaxReachableSets)
    : Spec(Spec), Movers(Movers), MaxReachableSets(MaxReachableSets),
      Probes(Spec.probes()), ProbeKeys(Spec.probeKeys()) {}

const ReachableFamily &CommutativityAnalysis::family() {
  if (!FamilyComputed) {
    Fam = computeReachableFamily(Spec, Probes, MaxReachableSets);
    FamilyComputed = true;
  }
  return Fam;
}

int64_t CommutativityAnalysis::strongSweep(size_t AIdx, size_t BIdx) {
  const ReachableFamily &F = family();
  const Operation &A = Probes[AIdx], &B = Probes[BIdx];
  OpKeyId KA = ProbeKeys[AIdx], KB = ProbeKeys[BIdx];
  for (size_t I = 0; I < F.Sets.size(); ++I)
    if (!diamondClosesAt(Spec, F.Sets[I], A, KA, B, KB))
      return static_cast<int64_t>(I);
  return -1;
}

bool CommutativityAnalysis::stronglyCommutes(size_t AIdx, size_t BIdx,
                                             PairCertificate *CertOut) {
  uint64_t Lo = std::min(AIdx, BIdx), Hi = std::max(AIdx, BIdx);
  uint64_t Key = (Lo << 32) | Hi;
  auto It = PairMemo.find(Key);
  if (It == PairMemo.end()) {
    PairEntry E;
    const ReachableFamily &F = family();
    if (!F.Exact) {
      E.Cert.Kind = CertKind::Unknown;
    } else {
      int64_t Fail = strongSweep(AIdx, BIdx);
      const Operation &A = Probes[AIdx], &B = Probes[BIdx];
      if (Fail < 0) {
        E.Cert.Kind = CertKind::StrongDiamond;
        E.Cert.Family = F.Sets;
        std::sort(E.Cert.Family.begin(), E.Cert.Family.end());
        // Never trust the sweep: the verdict is the *checker's*.
        ++CertChecks;
        E.Strong =
            verifyStrongCertificate(Spec, A, B, Probes, E.Cert).Ok;
      } else {
        E.Cert.Kind = CertKind::Counterexample;
        E.Cert.Witness =
            witnessPrefix(F, static_cast<size_t>(Fail), Probes);
        ++CertChecks;
        // A failed replay would mean the sweep mis-indexed its witness;
        // the pair stays non-strong either way, but the certificate is
        // only kept if it replays.
        if (!verifyCounterexample(Spec, A, B, E.Cert).Ok)
          E.Cert.Kind = CertKind::Unknown;
      }
    }
    It = PairMemo.emplace(Key, std::move(E)).first;
  }
  if (CertOut)
    *CertOut = It->second.Cert;
  return It->second.Strong;
}

PairVerdict CommutativityAnalysis::classify(size_t AIdx, size_t BIdx) {
  PairVerdict V;
  V.Strong = stronglyCommutes(AIdx, BIdx, &V.Cert);
  const Operation &A = Probes[AIdx], &B = Probes[BIdx];
  V.LeftAB = Movers.leftMover(A, B);
  V.LeftBA = Movers.leftMover(B, A);
  if (V.LeftAB == Tri::Yes && V.LeftBA == Tri::Yes)
    V.Class = MoverClass::Both;
  else if (V.LeftAB == Tri::Yes)
    V.Class = MoverClass::Left;
  else if (V.LeftBA == Tri::Yes)
    V.Class = MoverClass::Right;
  else
    V.Class = MoverClass::Non;
  // A both-mover that is not strongly commuting: refinement without
  // equality (or a bounded-out family).  Record the evidence grade when
  // no replayable certificate exists.
  if (!V.Strong && V.Class == MoverClass::Both &&
      V.Cert.Kind == CertKind::Unknown)
    V.Cert.Kind = CertKind::ViaPrecongruence;
  return V;
}

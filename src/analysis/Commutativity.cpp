//===- analysis/Commutativity.cpp - Certified commutation analysis ----------===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "analysis/Commutativity.h"

#include <algorithm>

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
  if (!Cert.Family || Cert.Family->empty()) {
    R.Detail = "empty family";
    return R;
  }
  const std::vector<StateSetId> &Fam = *Cert.Family;
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

bool pushpull::certifyPair(const SequentialSpec &Spec,
                           const ReachableFamily &F, size_t AIdx, size_t BIdx,
                           PairCertificate &Cert) {
  Cert = PairCertificate();
  if (!F.Exact)
    return false;
  const std::vector<Operation> &Probes = Spec.probes();
  const std::vector<OpKeyId> &Keys = Spec.probeKeys();
  const Operation &A = Probes[AIdx], &B = Probes[BIdx];
  auto Fail = std::find_if(F.Sets.begin(), F.Sets.end(), [&](StateSetId S) {
    return !diamondClosesAt(Spec, S, A, Keys[AIdx], B, Keys[BIdx]);
  });
  if (Fail == F.Sets.end()) {
    Cert.Kind = CertKind::StrongDiamond;
    Cert.Family = F.Sorted;
    // Never trust the sweep: the verdict is the *checker's*.
    return verifyStrongCertificate(Spec, A, B, Probes, Cert).Ok;
  }
  Cert.Kind = CertKind::Counterexample;
  Cert.Witness = witnessPrefix(
      F, static_cast<size_t>(Fail - F.Sets.begin()), Probes);
  // A failed replay would mean the sweep mis-indexed its witness; the pair
  // stays non-strong either way, but the certificate is only kept if it
  // replays.
  if (!verifyCounterexample(Spec, A, B, Cert).Ok)
    Cert.Kind = CertKind::Unknown;
  return false;
}

PairVerdict pushpull::classifyPair(const SequentialSpec &Spec,
                                   MoverChecker &Movers, size_t AIdx,
                                   size_t BIdx) {
  PairVerdict V;
  V.Strong = certifyPair(Spec, Movers.family(), AIdx, BIdx, V.Cert);
  const Operation &A = Spec.probes()[AIdx], &B = Spec.probes()[BIdx];
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
  return V;
}

//===- analysis/Commutativity.h - Certified commutation analysis -*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static commutativity analysis behind the certified mover tables
/// (analysis/MoverTable.h): classify every ordered pair of probe
/// operations of a sequential specification, and back each verdict with a
/// *machine-checkable certificate* that a tiny independent checker can
/// replay without trusting the inference code.
///
/// Two gradations of commutation are distinguished:
///
///   * The Lipton / Definition 4.1 mover classes (both / left / right /
///     non-mover), decided by core/Mover's semantic precongruence check:
///     A <| B means every real log ...A.B... may be reordered to ...B.A...
///     on the atomic side (a *refinement* statement — the reordered
///     denotation may shrink).
///
///   * *Strong commutation* (core/Commut.h): for every reachable state
///     set S, [[S.A.B]] and [[S.B.A]] are the *same* interned set, and if
///     both operations are individually allowed at S their composition is
///     allowed too.  This is strictly stronger than mutual precongruence
///     and is the grade the exploration-facing consumers require: only
///     strongly commuting pairs may be treated as independent firings or
///     quotiented in the configuration key, because those uses need
///     *equality* of the two orders, not refinement.
///
/// The quantification domain is the probe-closed reachable family: the
/// set of state sets reachable from the initial denotation under any
/// sequence of probe operations, enumerated breadth-first with
/// predecessor links (so any member has a minimal witness prefix).  When
/// the frontier is exhausted within the bound the family is *exact*, and
/// a completed strong sweep over it is a finite proof; otherwise every
/// verdict degrades to Unknown and no certificate is issued.
///
/// Certificates (PairCertificate):
///
///   * StrongDiamond — the sorted family of interned state-set ids.  The
///     checker verifies (1) the initial denotation is a member, (2) the
///     family is closed under every probe operation (images are members
///     or empty), and (3) every member closes the A/B diamond with the
///     enabledness clause.  Soundness of an accepted certificate rests
///     only on the spec's denotation kernel, not on the analysis.
///   * Counterexample — a minimal (BFS-order) probe prefix reaching a
///     state set where the diamond fails.  The checker replays the
///     prefix and confirms the failure.
///   * ViaPrecongruence — the pair is a both-mover by the precongruence
///     engine but strong commutation was not established (refinement
///     without equality, or an inexact family).  Informative only; never
///     consumed by the explorer or the prover.
///   * Unknown — bounded-out.  Never consumed.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_ANALYSIS_COMMUTATIVITY_H
#define PUSHPULL_ANALYSIS_COMMUTATIVITY_H

#include "core/Mover.h"
#include "core/Spec.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace pushpull {

/// Lipton mover class of the ordered pair (A, B).
enum class MoverClass {
  Both,  ///< A <| B and B <| A.
  Left,  ///< A <| B only (A moves left past B).
  Right, ///< B <| A only (A moves right past B).
  Non,   ///< Neither direction holds (or is decidable).
};

std::string toString(MoverClass C);

/// The probe-closed reachable family of denotations, with BFS predecessor
/// links for minimal-witness reconstruction.  Sets[0] is the initial
/// denotation; Parent/ParentOp label the discovery edge of every other
/// member.
struct ReachableFamily {
  std::vector<StateSetId> Sets;
  std::vector<int32_t> Parent;    ///< Index into Sets; -1 for the root.
  std::vector<uint32_t> ParentOp; ///< Probe index of the discovery edge.
  /// The frontier emptied within the bound: the family is the whole
  /// reachable space and sweeps over it are proofs, not samples.
  bool Exact = false;
};

/// Enumerate the probe-closed reachable family of \p Spec breadth-first,
/// stopping at \p MaxSets members (Exact records whether the frontier was
/// exhausted).  Mirrors core/Mover's enumeration but keeps predecessor
/// links; the two are cross-validated by tests/commut_test.cpp.
ReachableFamily computeReachableFamily(const SequentialSpec &Spec,
                                       const std::vector<Operation> &Probes,
                                       size_t MaxSets);

/// The minimal probe prefix (by BFS discovery) denoting Sets[\p Index].
std::vector<Operation> witnessPrefix(const ReachableFamily &F, size_t Index,
                                     const std::vector<Operation> &Probes);

/// Evidence grade of a pair verdict (see the file comment).
enum class CertKind {
  StrongDiamond,
  Counterexample,
  ViaPrecongruence,
  Unknown,
};

std::string toString(CertKind K);

/// A replayable certificate for one unordered pair's strong-commutation
/// verdict.
struct PairCertificate {
  CertKind Kind = CertKind::Unknown;
  /// StrongDiamond: the certified family, sorted ascending (checker input).
  std::vector<StateSetId> Family;
  /// Counterexample: minimal probe prefix to a diamond-failing state set.
  std::vector<Operation> Witness;
};

/// Full classification of one ordered probe pair (A, B).
struct PairVerdict {
  MoverClass Class = MoverClass::Non;
  /// Raw Definition 4.1 verdicts behind Class.
  Tri LeftAB = Tri::Unknown; ///< A <| B.
  Tri LeftBA = Tri::Unknown; ///< B <| A.
  /// Certified strong commutation (symmetric; see core/Commut.h).  Only
  /// true when a StrongDiamond certificate was produced AND independently
  /// verified.
  bool Strong = false;
  PairCertificate Cert;
};

/// Outcome of one independent certificate replay.
struct CertCheckResult {
  bool Ok = false;
  std::string Detail;
};

/// Independently verify a StrongDiamond certificate for (\p A, \p B): the
/// initial denotation is in Cert.Family, the family is closed under every
/// probe, and every member closes the diamond.  Trusts only the spec's
/// denotation kernel (applyOpId / initialId); never consults the analysis
/// that produced the certificate.
CertCheckResult verifyStrongCertificate(const SequentialSpec &Spec,
                                        const Operation &A,
                                        const Operation &B,
                                        const std::vector<Operation> &Probes,
                                        const PairCertificate &Cert);

/// Independently verify a Counterexample certificate for (\p A, \p B):
/// replay the witness prefix from the initial denotation and confirm the
/// diamond fails there.
CertCheckResult verifyCounterexample(const SequentialSpec &Spec,
                                     const Operation &A, const Operation &B,
                                     const PairCertificate &Cert);

/// The pair classifier.  Owns the reachable family (computed once) and a
/// per-unordered-pair memo of strong-sweep outcomes; Lipton classes are
/// delegated to the (memoized) MoverChecker.  Not internally
/// synchronized — the thread-safe facade is analysis/MoverTable.h's
/// CommutativityDB.
class CommutativityAnalysis {
public:
  CommutativityAnalysis(const SequentialSpec &Spec, MoverChecker &Movers,
                        size_t MaxReachableSets = 4096);

  const std::vector<Operation> &probes() const { return Probes; }
  const ReachableFamily &family();

  /// Classify probe pair (Probes[AIdx], Probes[BIdx]).  Every verdict
  /// with Strong==true had its certificate re-verified by the independent
  /// checker before being returned; certChecks() counts those replays.
  PairVerdict classify(size_t AIdx, size_t BIdx);

  /// Strong-commutation query only (the hot path of the lazy DB): the
  /// certificate machinery without the Lipton classification.
  bool stronglyCommutes(size_t AIdx, size_t BIdx, PairCertificate *CertOut);

  uint64_t certChecks() const { return CertChecks; }

private:
  /// Sweep the family for the (unordered) pair; returns the failing
  /// family index or -1 when every member closes the diamond.
  int64_t strongSweep(size_t AIdx, size_t BIdx);

  const SequentialSpec &Spec;
  MoverChecker &Movers;
  size_t MaxReachableSets;
  /// The spec's probe alphabet and its interned keys (owned by the spec).
  const std::vector<Operation> &Probes;
  const std::vector<OpKeyId> &ProbeKeys;
  bool FamilyComputed = false;
  ReachableFamily Fam;
  /// Unordered-pair memo: (min<<32|max) -> verified strong verdict +
  /// certificate.
  struct PairEntry {
    bool Strong = false;
    PairCertificate Cert;
  };
  std::unordered_map<uint64_t, PairEntry> PairMemo;
  uint64_t CertChecks = 0;
};

} // namespace pushpull

#endif // PUSHPULL_ANALYSIS_COMMUTATIVITY_H

//===- analysis/Commutativity.h - Certified commutation analysis -*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static commutativity analysis behind the certified mover tables
/// (analysis/MoverTable.h): classify ordered pairs of probe operations of
/// a sequential specification, and back each strong-commutation verdict
/// with a *machine-checkable certificate* that a tiny independent checker
/// can replay without trusting the inference code.
///
/// Two gradations of commutation are distinguished:
///
///   * The Lipton / Definition 4.1 mover classes (both / left / right /
///     non-mover), decided by core/Mover's leftMover: A <| B means every
///     real log ...A.B... may be reordered to ...B.A... on the atomic side
///     (a *refinement* statement — the reordered denotation may shrink).
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
/// The quantification domain is MoverChecker::family(), the probe-closed
/// reachable family the semantic mover check also sweeps.  When it is
/// exact, a completed strong sweep over it is a finite proof; otherwise
/// certifyPair produces no certificate and the pair is never strong.
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
///   * Unknown — bounded-out.  Never consumed.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_ANALYSIS_COMMUTATIVITY_H
#define PUSHPULL_ANALYSIS_COMMUTATIVITY_H

#include "core/Mover.h"
#include "core/Spec.h"

#include <memory>
#include <string>
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

/// Evidence grade of a pair verdict (see the file comment).
enum class CertKind {
  StrongDiamond,
  Counterexample,
  Unknown,
};

/// A replayable certificate for one unordered pair's strong-commutation
/// verdict.
struct PairCertificate {
  CertKind Kind = CertKind::Unknown;
  /// StrongDiamond: the certified family, sorted ascending (checker
  /// input).  Shared with the reachable family it was certified over.
  std::shared_ptr<const std::vector<StateSetId>> Family;
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

/// Certify the strong commutation of probe pair (Spec.probes()[\p AIdx],
/// Spec.probes()[\p BIdx]) over \p F, the spec's reachable family: sweep
/// the diamond over every member, then replay the resulting StrongDiamond
/// or Counterexample certificate through the independent checker above.
/// Returns the checker's verdict, never the sweep's.  Exactly one replay
/// runs when F.Exact; none otherwise (Cert is then Unknown).  A
/// counterexample that fails its replay is downgraded to Unknown.
bool certifyPair(const SequentialSpec &Spec, const ReachableFamily &F,
                 size_t AIdx, size_t BIdx, PairCertificate &Cert);

/// certifyPair over Movers.family(), plus the two Definition 4.1 verdicts
/// (through the memoized, hint-first leftMover) that give the Lipton class.
PairVerdict classifyPair(const SequentialSpec &Spec, MoverChecker &Movers,
                         size_t AIdx, size_t BIdx);

} // namespace pushpull

#endif // PUSHPULL_ANALYSIS_COMMUTATIVITY_H

//===- analysis/MoverTable.h - Certified mover tables + prover --*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The consumer-facing layer over analysis/Commutativity.h.  Both tables
/// certify pairs with certifyPair over the family of a MoverChecker they
/// are given or own (MoverChecker::family()), so the certificates and the
/// semantic mover check quantify over one and the same reachable family:
///
///   * MoverTable — the eager NxN classification of a specification's
///     probe alphabet into Lipton mover classes and certified
///     strong-commutation verdicts (classifyPair once per pair), with
///     per-method-pair predicate summaries ("Map.put x Map.put: commutes
///     iff distinct first argument").  This is what `ppcheck --movers`
///     and the test battery consume.
///
///   * CommutativityDB — the lazy, thread-safe CommutativityOracle the
///     explorer and pprun consume (ExplorerConfig::CommutDB).  Verdicts
///     are certified on first query and kept in the one pair memo; unknown
///     op keys answer false (sound).  coversProgram() decides whether a
///     scenario's call surface maps entirely into the probe alphabet —
///     the precondition for the reachable-family certificates to cover
///     every state the explorer can place the oracle in.
///
///   * proveSerializable — the whole-program conflict-serializability
///     prover behind `ppcheck --prove`: if every cross-thread pair of
///     statically-resolved call instances strongly commutes (each backed
///     by a verified certificate), every interleaving of the program is
///     conflict-equivalent to a serial one, for ANY engine rule surface
///     (the proof quantifies over all of TMEngine::ruleMask()); the
///     explorer may then skip its per-terminal serializability oracle
///     (ExplorerConfig::SkipOracle).  Otherwise it reports the first
///     non-commuting pair with its counterexample witness, or UNPROVED
///     when a call cannot be matched to the probe alphabet.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_ANALYSIS_MOVERTABLE_H
#define PUSHPULL_ANALYSIS_MOVERTABLE_H

#include "analysis/Commutativity.h"
#include "core/Commut.h"
#include "sim/Scenario.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace pushpull {

/// Argument-predicate summary of all probe-instance verdicts for one
/// unordered method pair.
enum class PairPredicate {
  Always,       ///< Every instance pair strongly commutes.
  Never,        ///< No instance pair strongly commutes.
  DistinctArg0, ///< Distinct first arguments imply strong commutation
                ///< (and some equal-argument pair does not commute).
  EqualArg0,    ///< Equal first arguments imply strong commutation
                ///< (and some distinct-argument pair does not commute).
  Mixed,        ///< No first-argument predicate explains the verdicts.
};

std::string toString(PairPredicate P);

/// Summary row for one unordered method pair (e.g. map.put x map.put).
struct MethodPairSummary {
  std::string ObjectA, MethodA;
  std::string ObjectB, MethodB;
  PairPredicate Pred = PairPredicate::Mixed;
  size_t StrongPairs = 0; ///< Instance pairs that strongly commute.
  size_t TotalPairs = 0;  ///< Instance pairs examined.
  /// Lipton classes observed across instances (counts by MoverClass).
  size_t ClassCounts[4] = {0, 0, 0, 0};
};

/// The eager certified table: every unordered probe-instance pair of one
/// specification, classified and certified.
class MoverTable {
public:
  /// One probe-instance pair's row.
  struct Entry {
    size_t AIdx = 0, BIdx = 0; ///< Probe indices, AIdx <= BIdx.
    PairVerdict V;
  };

  /// Build the full table for \p Spec over Movers.family() (its bound is
  /// the checker's MoverLimits).  Every Strong verdict in the result was
  /// certified and independently re-verified; certChecks() counts the
  /// replays.
  static MoverTable build(const SequentialSpec &Spec, MoverChecker &Movers);

  const std::vector<Operation> &probes() const { return Probes; }
  const std::vector<Entry> &entries() const { return Entries; }
  const std::vector<MethodPairSummary> &summaries() const {
    return Summaries;
  }
  bool familyExact() const { return FamilyExact; }
  size_t familySize() const { return FamilySize; }
  uint64_t certChecks() const { return CertChecks; }

  /// Human-readable table rendering (ppcheck's movers section).
  std::string toString() const;

private:
  std::vector<Operation> Probes;
  std::vector<Entry> Entries;
  std::vector<MethodPairSummary> Summaries;
  bool FamilyExact = false;
  size_t FamilySize = 0;
  uint64_t CertChecks = 0;
};

/// Thread-safe lazy oracle over one specification's probe alphabet.
/// Owns the MoverChecker whose family() its certificates quantify over,
/// and the one memo of certified pair verdicts.  See core/Commut.h for the
/// soundness contract.
class CommutativityDB : public CommutativityOracle {
public:
  explicit CommutativityDB(const SequentialSpec &Spec,
                           size_t MaxReachableSets = 4096);

  /// CommutativityOracle: true only for two known probe keys whose pair
  /// carries a verified StrongDiamond certificate.
  bool stronglyCommute(OpKeyId A, OpKeyId B) const override;
  uint64_t tableHits() const override {
    return Hits.load(std::memory_order_relaxed);
  }
  uint64_t tableMisses() const override {
    return Misses.load(std::memory_order_relaxed);
  }
  uint64_t certChecks() const override;

  /// Does every method call in \p Threads resolve (literal arguments,
  /// matching probe instances) into this DB's probe alphabet?  Required
  /// before handing the DB to the explorer: the certificates quantify
  /// over the probe-closed reachable family, which only covers runs whose
  /// every operation is a probe instance.  On failure \p WhyNot (if
  /// non-null) names the first uncovered call.
  bool coversProgram(const std::vector<std::vector<CodePtr>> &Threads,
                     std::string *WhyNot = nullptr) const;

  const std::vector<Operation> &probes() const { return Spec.probes(); }

  /// Strong query by probe index (the prover's path; same certification
  /// and memoization as stronglyCommute, without the key lookup).
  /// \p CertOut, if non-null, receives the pair's certificate.
  bool strongByProbeIndex(size_t AIdx, size_t BIdx,
                          PairCertificate *CertOut = nullptr) const;

private:
  const SequentialSpec &Spec;
  std::unordered_map<OpKeyId, size_t> ProbeOf;
  mutable std::mutex Mu; ///< Guards Movers, Memo and CertChecks.
  mutable MoverChecker Movers;
  /// Unordered-pair memo: (min << 32 | max) -> verified strong verdict
  /// and its certificate.
  struct PairEntry {
    bool Strong = false;
    PairCertificate Cert;
  };
  mutable std::unordered_map<uint64_t, PairEntry> Memo;
  mutable uint64_t CertChecks = 0;
  mutable std::atomic<uint64_t> Hits{0}, Misses{0};
};

/// Whole-program conflict-serializability proof attempt (ppcheck --prove,
/// pprun --static-prove).
struct ProveResult {
  enum class Verdict {
    Proved,   ///< Certificate: all cross-thread instance pairs commute.
    Conflict, ///< Minimal conflicting pair found (PairA/PairB/Witness).
    Unproved, ///< Out of scope for this method (Detail explains).
  };
  Verdict V = Verdict::Unproved;
  /// Human-readable explanation: the certificate summary, the conflicting
  /// pair's counterexample, or the reason the program is out of scope.
  std::string Detail;
  /// The first non-commuting cross-thread pair (Conflict only).
  std::string PairA, PairB;
  /// Cross-thread instance pairs checked (each Proved pair is certified).
  size_t PairsChecked = 0;
  /// Distinct probe instances the program's calls resolved to.
  size_t Instances = 0;
};

std::string toString(ProveResult::Verdict V);

/// Attempt the whole-program proof for \p S against \p DB (which must be
/// built over S.Spec).  The verdict quantifies over every engine rule
/// surface, so it is engine-independent; the engine named by the scenario
/// is only echoed in Detail.  Never runs the scenario.
ProveResult proveSerializable(const Scenario &S, const CommutativityDB &DB);

} // namespace pushpull

#endif // PUSHPULL_ANALYSIS_MOVERTABLE_H

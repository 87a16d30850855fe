//===- analysis/IndependenceAudit.h - Reduction soundness audit -*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static audit of the explorer's independence relation
/// (sim/Reduction.h): for every well-formed abstract shape up to a scope,
/// every cross-thread pair of *enabled* firings that independentFirings
/// claims independent must commute as a diamond —
///
///   * each remains enabled (with the same firing identity) after the
///     other fires, and
///   * both execution orders reach the same configuration (compared by
///     the machine's canonical configKey, which is operation-id-free).
///
/// This discharges, by exhaustive small-scope enumeration over the
/// *shape* domain, the same obligation tests/reduction_test.cpp checks
/// dynamically over fuzzed reachable configurations — but without running
/// a scheduler, and over the strictly larger well-formed space.  Shapes
/// are only ever probed through the machine, so a pair is audited exactly
/// when both firings are genuinely enabled there; unreachable shapes can
/// therefore only *add* audited pairs, never fabricate enabledness.
/// Because independentFirings is justified purely by criterion footprints
/// (which hold at any well-formed configuration), a violation found at an
/// unreachable shape is still a real footprint bug.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_ANALYSIS_INDEPENDENCEAUDIT_H
#define PUSHPULL_ANALYSIS_INDEPENDENCEAUDIT_H

#include "analysis/Shapes.h"
#include "sim/Reduction.h"

#include <string>
#include <vector>

namespace pushpull {

/// Every candidate firing of every thread at \p M's current
/// configuration, with footprints, regardless of enabledness (callers
/// probe enabledness themselves): BEGIN for idle threads with pending
/// work, every APP choice, UNAPP, PUSH/UNPUSH/UNPULL per local index,
/// PULL per global index, CMT.
std::vector<Candidate> allCandidates(const PushPullMachine &M);

/// Check every claimed-independent pair of enabled cross-thread firings
/// at \p M's current configuration as a diamond.  Appends a description
/// per violation to \p Failures; returns the number of pairs checked.
/// \p MaxPairs, when nonzero, bounds the work.  Every firing happens on
/// \p M under an undo mark and is rolled back, so \p M is left as found.
size_t checkIndependenceAt(PushPullMachine &M,
                           std::vector<std::string> &Failures,
                           size_t MaxPairs = 0);

struct IndependenceViolation {
  AbstractShape Shape;
  Firing A, B;
  std::string Reason;
};

struct IndependenceAuditConfig {
  ShapeScope Scope;
  const SequentialSpec *Spec = nullptr;
  bool StopAtFirstViolation = false;
  uint64_t MaxShapes = 0;
};

struct IndependenceAuditReport {
  uint64_t ShapesVisited = 0;
  uint64_t ShapesAudited = 0;
  uint64_t PairsChecked = 0;
  std::vector<IndependenceViolation> Violations;
  std::vector<Operation> Alphabet;

  bool clean() const { return Violations.empty(); }
};

/// Run the shape-domain audit.  The scope should enable idle-with-pending
/// variants and other-thread code (BEGIN and cross-thread APP pairs are
/// part of the relation); auditIndependence forces both flags on.
IndependenceAuditReport
auditIndependence(const IndependenceAuditConfig &Config);

} // namespace pushpull

#endif // PUSHPULL_ANALYSIS_INDEPENDENCEAUDIT_H

//===- perfbench/src/harness.h - Shared workload plumbing -------*- C++ -*-===//
//
// What every workload fills in, and the helpers that turn it into the
// benchmark's metrics.  A workload runs in one of two modes:
//
//  * untraced (--trace 0): set up several times, then run timed passes for
//    the requested seconds; the harness derives the end-to-end metrics from
//    the recorded set-up, pass and unit timings;
//  * traced (--trace 1): set up, run untraced passes for half the time (the
//    overhead baseline), then the same passes with spans on for the other
//    half; the workload reports its per-layer metrics by name.
//
// Every pass checks its own verdicts; a wrong one counts as a failed unit.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "trace.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  /// Seeds the fuzz and stress inputs; explore and audit are seedless.
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Repository root (holds scenarios/).
  std::string Root = ".";
};

struct Result {
  /// Units attempted and failed (a unit is a scope verdict, a fuzz case, a
  /// stress engine run or an audit item).
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// First failure diagnostics (printed to stderr).
  std::vector<std::string> Failures;

  /// Untraced timings: one entry per set-up, per pass and per unit.
  std::vector<double> SetupS;
  std::vector<double> PassS;
  std::vector<double> UnitMs;
  /// Work of each pass, in the workload's own unit of work (configs, cases,
  /// checked commits, audit items).
  std::vector<double> PassWork;
  /// What each pass ran: passes of one kind run the same units in the same
  /// order.  Every pass is of kind 0 on explore, stress (whose passes differ
  /// only in their seed) and audit; on fuzz the kind is the batch.
  std::vector<size_t> PassKind;
  /// Peak resident memory once set-up and the first pass are done.  Read
  /// there, not at exit: on stress the process grows by about 2 MiB per
  /// pass, so a peak read at exit would count how many passes fit in the
  /// run, which is machine speed, not memory use.
  double PeakRssMiB = 0;

  /// Record one untraced pass of \p Seconds, of kind \p Kind, that did
  /// \p Work units of work.
  void addPass(double Seconds, double Work, size_t Kind = 0);

  /// Per-layer metrics by name (traced mode).  Names absent here are
  /// reported as 0: the workload does no work in that layer.
  std::map<std::string, double> Layer;

  /// Count one checked unit; \p Ok false makes it a failure.
  void check(bool Ok, const std::string &What);
};

double median(std::vector<double> V);
/// Nearest-rank percentile \p P (0-100) of \p V; 0 for an empty vector.
double percentile(std::vector<double> V, double P);
double mean(const std::vector<double> &V);

/// The fastest repeat of each kind of pass, and of each kind of unit (a
/// unit's kind is its pass's kind and its place in the pass).  On a shared
/// host the times of identical work fall into a fast and a slow mode (the
/// vCPU's neighbours idle or busy), in a mix that changes from minute to
/// minute; the fast mode is what stays put between runs.
std::vector<double> fastestPasses(const Result &R);
std::vector<double> fastestUnits(const Result &R);

/// Run the calling thread on the next CPU it may use, round robin.  Called
/// before every pass of a single-threaded workload.  On a shared host each
/// vCPU's speed drifts on its own, by up to half, over seconds; a thread left
/// where the scheduler put it can spend a whole run on one slow vCPU.
/// Visiting every vCPU in turn lets the run's fastest repeats find the
/// quiet ones.
void nextCpu();

inline double secondsSince(uint64_t T0) {
  return static_cast<double>(nowNs() - T0) * 1e-9;
}

inline double ratio(double A, double B) { return B != 0 ? A / B : 0.0; }

/// Time one call of \p SetUp into R.SetupS.  Workloads set up once before
/// the first pass and once more after every pass (discarding the product),
/// so the set-up median samples the whole run, not its first milliseconds:
/// on a shared host the machine's speed drifts over seconds.
template <typename Fn> void timeSetUp(Result &R, Fn &&SetUp) {
  uint64_t T0 = nowNs();
  SetUp();
  R.SetupS.push_back(secondsSince(T0));
}

/// Fill the trace.* and self_frac.* metrics from the collected span totals.
/// \p Untraced and \p Traced are the pass times of the two halves of a
/// traced run, in pass order.
void addTraceMetrics(Result &R, const SiteTotals &T,
                     const std::vector<double> &Untraced,
                     const std::vector<double> &Traced);

/// Mean inclusive microseconds per call of site \p S (0 without calls).
double usPerCall(const SiteTotals &T, Site S);

Result runExplore(const Options &Opt);
Result runFuzz(const Options &Opt);
Result runStress(const Options &Opt);
Result runAudit(const Options &Opt);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H

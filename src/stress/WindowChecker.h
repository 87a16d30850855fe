//===- stress/WindowChecker.h - Window replay validation --------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates one stress worker's captured schedule by *shadow replay*: a
/// clean single-threaded PushPullMachine + engine, built by EngineRun from
/// the very scenario the live worker was built from (same spec, same
/// engine options, same fault injection), is advanced by exactly the
/// recorded thread picks, one step per drained StressRecord.  Engines are
/// deterministic given their seed and the pick sequence, and each
/// worker's live machine is thread-confined, so live and shadow must
/// agree step for step — the checker compares a per-step fingerprint
/// (step status, local/global log sizes, commit count) and treats any
/// divergence as a failure (it means the live run was not the
/// deterministic function of its inputs it is supposed to be, i.e. a
/// data race or nondeterminism bug).
///
/// At every window boundary (arbiter epoch change) and at round end, the
/// shadow state is adjudicated semantically: the atomic oracle of
/// Theorem 5.17 replays the committed transactions in commit order, and
/// the rule trace is classified against the Section 6.1 opaque fragment.
/// A failed window dumps a `.ppsched` reproducer: the round's scenario,
/// with the picks fed so far as its `schedule replay picks=...`, written
/// by printScenario.  It re-executes the exact window deterministically.
///
/// Soundness of checking windows (prefixes) rather than only final
/// states: the oracle's verdict is about the committed projection, which
/// only ever grows at CMT, so every window boundary is a configuration
/// the live machine actually passed through; a serializable full run has
/// all prefixes serializable in commit order, hence a failing window is
/// a genuine counterexample, never an artifact of cutting early.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_STRESS_WINDOWCHECKER_H
#define PUSHPULL_STRESS_WINDOWCHECKER_H

#include "core/Atomic.h"
#include "sim/Scenario.h"
#include "sim/Stats.h"
#include "stress/RingTrace.h"
#include "tm/Engine.h"

#include <memory>
#include <string>
#include <vector>

namespace pushpull {

/// Fill \p R's cross-check fields (pick, status, log sizes, commit count)
/// from \p M right after thread \p Pick was stepped with result
/// \p Status.  The live worker and the shadow checker both use this, so
/// the fingerprint definition cannot drift between the two sides.
void stampFingerprint(StressRecord &R, const PushPullMachine &M,
                      uint32_t Pick, StepStatus Status);

/// Everything needed to rebuild one worker-round deterministically: the
/// round as a scenario — its one spec line and built spec (shared with
/// the live worker; its state table is internally synchronized), the
/// engine with the live engine's exact seed (shadow determinism depends
/// on it), the round's thread programs, and the fault injection both live
/// and shadow machines run under (the shadow must *reproduce* the faulty
/// run; the oracle is the independent ground truth that convicts it) —
/// plus the oracle's resource bounds.
struct WindowCheckConfig : Scenario {
  AtomicLimits Atomic{64, 20000};
};

/// One worker-round's shadow machine plus the windowed validation state.
class WindowChecker {
public:
  /// Builds the shadow machine and engine.  On failure \p Error is set
  /// and ok() is false.
  WindowChecker(WindowCheckConfig Config, std::string &Error);
  ~WindowChecker();

  bool ok() const { return Engine != nullptr; }

  /// Advance the shadow by one recorded step and cross-check the
  /// fingerprint.  Closes the current window first when \p R's epoch is
  /// beyond the window being filled.  Returns false once a failure has
  /// been recorded (further records are ignored).
  bool feed(const StressRecord &R);

  /// Adjudicate everything fed since the last close (oracle + opacity).
  /// Called by feed() at epoch changes and by the runner at round end.
  /// Returns false on failure.
  bool closeWindow();

  /// Non-empty once any check failed; the first failure wins.
  const std::string &failure() const { return Failure; }

  /// Every pick fed so far, in order (the `.ppsched` schedule).
  const std::vector<uint32_t> &picks() const { return Config.ReplayPicks; }

  /// Render the fed history as a standalone `.ppsched` scenario: a header
  /// comment and printScenario of the round's scenario, which replays the
  /// picks fed so far and checks serializability and opacity.  Replayable
  /// by `ppstress --replay` and by plain `pprun`.
  std::string dumpSchedule() const;

  /// Windows closed, checker latency, failure counts.
  const StressStats &stats() const { return Stats; }

private:
  /// Record a failure (first one wins) with window context attached.
  void fail(const std::string &Detail);

  WindowCheckConfig Config;
  std::unique_ptr<EngineRun> Shadow;
  /// Shadow's engine; null when it could not be built.
  TMEngine *Engine = nullptr;

  std::string Failure;
  /// Epoch of the window currently being filled (first fed record sets
  /// it).
  uint64_t WindowEpoch = 0;
  bool WindowOpen = false;
  /// Commits adjudicated by the last closed window (skip re-running the
  /// oracle when a window added no commits).
  uint64_t CheckedCommits = 0;
  StressStats Stats;
};

} // namespace pushpull

#endif // PUSHPULL_STRESS_WINDOWCHECKER_H

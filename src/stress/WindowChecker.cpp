//===- stress/WindowChecker.cpp - Window replay validation -------------------===//

#include "stress/WindowChecker.h"

#include "check/Opacity.h"
#include "check/Serializability.h"

#include <chrono>

using namespace pushpull;

WindowChecker::WindowChecker(WindowCheckConfig C, std::string &Error)
    : Config(std::move(C)) {
  if (!Config.Spec) {
    Error = "window checker has no spec";
    return;
  }
  // The shadow replays the picks feed() records, and each window is
  // adjudicated for serializability and opacity: the dump says so.
  Config.Policy = SchedulePolicy::Replay;
  Config.Checks = {"serializability", "opacity"};
  // The shadow must *behave* identically to the live machine, so it is
  // built from the same scenario; the trace is recorded because the
  // opacity classifier reads it (the live machine skips it for speed —
  // recording does not affect behavior).
  MachineConfig MC;
  MC.RecordTrace = true;
  Shadow = std::make_unique<EngineRun>(Config, std::move(MC));
  Engine = Shadow->engine();
  if (!Engine)
    Error = "window checker engine: " + Shadow->error();
}

WindowChecker::~WindowChecker() = default;

void WindowChecker::fail(const std::string &Detail) {
  if (!Failure.empty())
    return;
  Failure = "window " + std::to_string(WindowEpoch) + " (after " +
            std::to_string(Config.ReplayPicks.size()) + " steps): " + Detail;
  ++Stats.WindowFailures;
}

bool WindowChecker::feed(const StressRecord &R) {
  if (!Failure.empty() || !Engine)
    return false;
  if (!WindowOpen) {
    WindowEpoch = R.Epoch;
    WindowOpen = true;
  } else if (R.Epoch > WindowEpoch) {
    if (!closeWindow())
      return false;
    WindowEpoch = R.Epoch;
    WindowOpen = true;
  }

  Config.ReplayPicks.push_back(R.Pick);
  const PushPullMachine &M = Shadow->machine();
  if (R.Pick >= M.threads().size()) {
    fail("recorded pick names nonexistent thread " + std::to_string(R.Pick));
    return false;
  }
  // The shadow's record is the live one restamped from the shadow
  // machine, so the two differ exactly where the fingerprints do.
  StressRecord Own = R;
  stampFingerprint(Own, M, R.Pick, Engine->step(R.Pick));
  if (Own != R) {
    auto Show = [](const StressRecord &F) {
      return "{" + toString(static_cast<StepStatus>(F.Status)) +
             " L=" + std::to_string(F.LSize) + " G=" +
             std::to_string(F.GSize) +
             " commits=" + std::to_string(F.Commits) + "}";
    };
    fail("shadow replay diverged at step " + std::to_string(R.Order) +
         " (thread " + std::to_string(R.Pick) + "): live " + Show(R) +
         " vs shadow " + Show(Own));
    return false;
  }
  return true;
}

bool WindowChecker::closeWindow() {
  if (!Failure.empty() || !Engine)
    return false;
  if (!WindowOpen)
    return true;
  WindowOpen = false;
  ++Stats.Windows;

  const PushPullMachine &M = Shadow->machine();
  uint64_t CommitsNow = M.committed().size();
  auto Start = std::chrono::steady_clock::now();
  if (CommitsNow > CheckedCommits) {
    // Atomic-oracle replay of everything committed so far, in commit
    // order — the Theorem 5.17 witness.  The committed projection only
    // grows, so each close re-adjudicates a genuine machine prefix.
    SerializabilityChecker Oracle(*Config.Spec, Config.Atomic, Config.Pre);
    SerializabilityVerdict V = Oracle.checkCommitOrder(M);
    if (V.Serializable == Tri::No)
      fail("atomic oracle: committed prefix not serializable in commit "
           "order — " +
           V.Detail);
    CheckedCommits = CommitsNow;
  }
  if (Failure.empty() && engineExpectedOpaque(Config.Engine)) {
    OpacityReport O = classifyTrace(M.trace());
    if (!O.InOpaqueFragment)
      fail("opacity: " + std::to_string(O.UncommittedPulls) + "/" +
           std::to_string(O.TotalPulls) +
           " uncommitted pulls — outside the opaque fragment for engine " +
           Config.Engine);
  }
  uint64_t Ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
  Stats.WindowCheckNs += Ns;
  if (Ns > Stats.MaxWindowCheckNs)
    Stats.MaxWindowCheckNs = Ns;
  return Failure.empty();
}

std::string WindowChecker::dumpSchedule() const {
  std::string Out =
      "# ppstress window reproducer (replay with: ppstress --replay <file>\n"
      "# or plain pprun <file>)\n";
  if (!Failure.empty())
    Out += "# failure: " + Failure + "\n";
  return Out + printScenario(Config);
}

void pushpull::stampFingerprint(StressRecord &R, const PushPullMachine &M,
                                uint32_t Pick, StepStatus Status) {
  R.Pick = Pick;
  R.Status = static_cast<uint8_t>(Status);
  R.LSize = static_cast<uint32_t>(M.thread(Pick).L.size());
  R.GSize = static_cast<uint32_t>(M.global().size());
  R.Commits = static_cast<uint32_t>(M.committed().size());
}

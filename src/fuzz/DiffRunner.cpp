//===- fuzz/DiffRunner.cpp - One differential run ---------------------------===//

#include "fuzz/DiffRunner.h"

#include "check/Serializability.h"
#include "core/Invariants.h"

using namespace pushpull;

Scenario pushpull::buildCase(const FuzzCase &Case, std::string &Error) {
  Scenario S = Case.toScenario();
  S.Spec = composeSpec(S.Specs, Error);
  return S;
}

DiffReport DiffRunner::run(const FuzzCase &Case) const {
  std::string Error;
  Scenario B = buildCase(Case, Error);
  if (!B.Spec) {
    DiffReport R;
    R.BuildError = Error;
    return R;
  }
  return run(B);
}

DiffReport DiffRunner::run(const Scenario &Case) const {
  DiffReport Report;
  if (!Case.Spec) {
    Report.BuildError = "case has no spec";
    return Report;
  }
  if (Case.Threads.empty()) {
    Report.BuildError = "case has no threads";
    return Report;
  }

  // Looked up before the memory counters are read: the first lookup builds
  // every engine once.
  const bool ExpectOpaque = engineExpectedOpaque(Case.Engine);
  memstats::Snapshot MemBefore = memstats::read();

  // (3) Invariants after every rule firing, via the observation hook.  The
  // hook receives the machine that fired.  Engines' validation dry runs
  // fire on the live machine under an undo mark and roll back afterwards,
  // so those firings are checked in the configuration they fired in.
  MachineConfig MC;
  MC.DisabledCriterion = Config.DisabledCriterion;
  if (Config.CheckInvariantsEachRule) {
    MC.OnRuleApplied = [&Report, this](const PushPullMachine &FM, RuleKind K,
                                       TxId T) {
      if (Report.InvariantViolated ||
          Report.RulesInvariantChecked >= Config.MaxInvariantCheckedRules)
        return;
      ++Report.RulesInvariantChecked;
      for (const ThreadState &Th : FM.threads()) {
        InvariantReport R = checkAllInvariants(Th, FM.global(), FM.movers());
        if (!R.Holds) {
          Report.InvariantViolated = true;
          Report.InvariantDetail = "after " + toString(K) + " by thread " +
                                   std::to_string(T) + ": " + R.Which +
                                   " failed for thread " +
                                   std::to_string(Th.Tid) +
                                   (R.Detail.empty() ? "" : " — " + R.Detail);
          return;
        }
      }
    };
  }

  EngineRun Run(Case, std::move(MC), Config.Movers, Config.Pre);
  if (!Run.engine()) {
    Report.BuildError = Run.error();
    return Report;
  }
  Report.Built = true;
  Report.Stats = Run.run();
  const PushPullMachine &M = Run.machine();

  // (1) Atomic-oracle replay in commit order — the witness Theorem 5.17's
  // proof constructs, so anything but Yes is suspect (No: discrepancy;
  // Unknown: oracle budget exhausted, inconclusive).
  SerializabilityChecker Oracle(*Case.Spec, Config.Atomic, Config.Pre);
  SerializabilityVerdict V = Oracle.checkCommitOrder(M);
  Report.Serializable = V.Serializable;
  Report.SerializabilityDetail = V.Detail;
  Report.OutcomesTried = V.OutcomesTried;
  if (Report.Serializable == Tri::No && Config.EscalateToAnyOrder) {
    // Diagnostic context: is some non-commit order a witness (commit-order
    // bookkeeping bug) or is the run flatly non-serializable?
    Report.SerializableAnyOrder = Oracle.checkAnyOrder(M).Serializable;
  }

  // (2) Fragment classification against the engine's declared strategy.
  Report.Opacity = classifyTrace(M.trace());
  Report.OpacityViolated = ExpectOpaque && !Report.Opacity.InOpaqueFragment;

  Report.Caches.Intern = Case.Spec->internStats();
  const MoverChecker &Movers = Run.movers();
  Report.Caches.MoverMemoHits = Movers.memoHits();
  Report.Caches.MoverMemoMisses = Movers.memoMisses();
  Report.Caches.PrecongruencePairs = Movers.precongruence().pairsVisited();
  Report.Caches.ReachableSets = Movers.reachableComputedCount();
  Report.Caches.Memory = memstats::read().delta(MemBefore);
  return Report;
}

std::string DiffReport::toString() const {
  if (!Built)
    return "build error: " + BuildError + "\n";
  std::string Out;
  Out += "  stats: " + Stats.toString() + "\n";
  Out += "  serializable (commit order): " + pushpull::toString(Serializable);
  if (!SerializabilityDetail.empty())
    Out += " — " + SerializabilityDetail;
  Out += " [" + std::to_string(OutcomesTried) + " outcomes]\n";
  if (Serializable == Tri::No)
    Out += "  serializable (any order): " +
           pushpull::toString(SerializableAnyOrder) + "\n";
  Out += "  opacity: " +
         std::string(Opacity.InOpaqueFragment ? "in" : "OUTSIDE") +
         " the opaque fragment (" + std::to_string(Opacity.UncommittedPulls) +
         "/" + std::to_string(Opacity.TotalPulls) + " uncommitted pulls)" +
         (OpacityViolated ? " — UNEXPECTED for this engine" : "") + "\n";
  Out += "  invariants: ";
  if (InvariantViolated)
    Out += "VIOLATED " + InvariantDetail + "\n";
  else
    Out += "held over " + std::to_string(RulesInvariantChecked) +
           " checked rule firings\n";
  Out += Caches.toString();
  return Out;
}

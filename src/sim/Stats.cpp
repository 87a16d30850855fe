//===- sim/Stats.cpp - Run statistics ---------------------------------------===//

#include "sim/Stats.h"

#include <cstdio>

using namespace pushpull;

double RunStats::committedOpsPerStep() const {
  if (SchedulerSteps == 0)
    return 0;
  return static_cast<double>(CommittedOps) /
         static_cast<double>(SchedulerSteps);
}

double RunStats::abortRatio() const {
  uint64_t Total = Commits + Aborts;
  if (Total == 0)
    return 0;
  return static_cast<double>(Aborts) / static_cast<double>(Total);
}

void RunStats::absorbTrace(const RuleTrace &T) {
  for (const TraceEvent &E : T)
    ++RuleCounts[static_cast<int>(E.Rule)];
}

std::string RunStats::toString() const {
  std::string Out = "steps=" + std::to_string(SchedulerSteps) +
                    " blocked=" + std::to_string(BlockedSteps) +
                    " commits=" + std::to_string(Commits) +
                    " aborts=" + std::to_string(Aborts) + " rules[";
  static const RuleKind Kinds[] = {
      RuleKind::App,  RuleKind::UnApp,  RuleKind::Push,  RuleKind::UnPush,
      RuleKind::Pull, RuleKind::UnPull, RuleKind::Commit};
  for (size_t I = 0; I < 7; ++I) {
    if (I)
      Out += " ";
    Out += pushpull::toString(Kinds[I]) + "=" +
           std::to_string(ruleCount(Kinds[I]));
  }
  Out += "] committedOps=" + std::to_string(CommittedOps);
  return Out;
}

double StressStats::commitsPerSec() const {
  return ElapsedSec > 0 ? static_cast<double>(Commits) / ElapsedSec : 0.0;
}

double StressStats::abortsPerSec() const {
  return ElapsedSec > 0 ? static_cast<double>(Aborts) / ElapsedSec : 0.0;
}

double StressStats::drainSec() const {
  return ElapsedSec > WorkersSec ? ElapsedSec - WorkersSec : 0.0;
}

double StressStats::meanWindowCheckUs() const {
  return Windows ? static_cast<double>(WindowCheckNs) /
                       static_cast<double>(Windows) / 1000.0
                 : 0.0;
}

void StressStats::absorb(const StressStats &W) {
  Steps += W.Steps;
  Commits += W.Commits;
  Aborts += W.Aborts;
  Transactions += W.Transactions;
  Windows += W.Windows;
  WindowFailures += W.WindowFailures;
  RingRecords += W.RingRecords;
  RingSpins += W.RingSpins;
  WindowCheckNs += W.WindowCheckNs;
  if (W.MaxWindowCheckNs > MaxWindowCheckNs)
    MaxWindowCheckNs = W.MaxWindowCheckNs;
}

std::string StressStats::toString() const {
  char Rate[64];
  std::snprintf(Rate, sizeof(Rate), "%.0f", commitsPerSec());
  std::string Out = "workers=" + std::to_string(Workers) +
                    " steps=" + std::to_string(Steps) +
                    " commits=" + std::to_string(Commits) +
                    " aborts=" + std::to_string(Aborts) +
                    " commits/s=" + Rate;
  Out += " windows=" + std::to_string(Windows);
  if (WindowFailures)
    Out += " FAILURES=" + std::to_string(WindowFailures);
  std::snprintf(Rate, sizeof(Rate), "%.1f", meanWindowCheckUs());
  Out += " check-us=" + std::string(Rate);
  std::snprintf(Rate, sizeof(Rate), "%.1f", drainSec() * 1e3);
  Out += " drain-ms=" + std::string(Rate) +
         " rings=" + std::to_string(RingRecords) + "/" +
         std::to_string(RingSpins) + "sp";
  return Out;
}

void CacheStats::absorb(const CacheStats &R) {
  Intern.StatesInterned += R.Intern.StatesInterned;
  Intern.StateSetsInterned += R.Intern.StateSetsInterned;
  Intern.OpKeysInterned += R.Intern.OpKeysInterned;
  Intern.TransitionMemoHits += R.Intern.TransitionMemoHits;
  Intern.TransitionMemoMisses += R.Intern.TransitionMemoMisses;
  MoverMemoHits += R.MoverMemoHits;
  MoverMemoMisses += R.MoverMemoMisses;
  PrecongruencePairs += R.PrecongruencePairs;
  ReachableSets += R.ReachableSets;
  ExplorerFiringsPruned += R.ExplorerFiringsPruned;
  ExplorerPersistentCuts += R.ExplorerPersistentCuts;
  ExplorerSymmetryHits += R.ExplorerSymmetryHits;
  CommutTableHits += R.CommutTableHits;
  CommutTableMisses += R.CommutTableMisses;
  CertChecks += R.CertChecks;
  ProvedPrograms += R.ProvedPrograms;
  OracleSkips += R.OracleSkips;
  Memory.MachineCopies += R.Memory.MachineCopies;
  Memory.ChunkShares += R.Memory.ChunkShares;
  Memory.DeepCopies += R.Memory.DeepCopies;
  Memory.SnapshotBytes += R.Memory.SnapshotBytes;
  Memory.ArenaBytes += R.Memory.ArenaBytes;
}

static std::string percent(double Rate) {
  return std::to_string(static_cast<int>(Rate * 100.0 + 0.5)) + "%";
}

std::string CacheStats::toString() const {
  std::string Out;
  Out += "  states interned:      " + std::to_string(Intern.StatesInterned) +
         "\n";
  Out += "  state sets interned:  " +
         std::to_string(Intern.StateSetsInterned) + "\n";
  Out += "  op keys interned:     " + std::to_string(Intern.OpKeysInterned) +
         "\n";
  Out += "  transition memo:      " +
         std::to_string(Intern.TransitionMemoHits) + " hits / " +
         std::to_string(Intern.TransitionMemoMisses) + " misses (" +
         percent(Intern.transitionHitRate()) + ")\n";
  Out += "  mover memo:           " + std::to_string(MoverMemoHits) +
         " hits / " + std::to_string(MoverMemoMisses) + " misses (" +
         percent(moverHitRate()) + ")\n";
  Out += "  precongruence pairs:  " + std::to_string(PrecongruencePairs) +
         "\n";
  Out += "  reachable state sets: " + std::to_string(ReachableSets) + "\n";
  Out += "  firings pruned:       " + std::to_string(ExplorerFiringsPruned) +
         " (" + percent(ExplorerReductionRatio) + " of candidates)\n";
  Out += "  persistent cuts:      " +
         std::to_string(ExplorerPersistentCuts) + "\n";
  Out += "  symmetry hits:        " + std::to_string(ExplorerSymmetryHits) +
         "\n";
  uint64_t CommutQueries = CommutTableHits + CommutTableMisses;
  double CommutHitRate =
      CommutQueries ? static_cast<double>(CommutTableHits) /
                          static_cast<double>(CommutQueries)
                    : 0.0;
  Out += "  commut table:         " + std::to_string(CommutTableHits) +
         " hits / " + std::to_string(CommutTableMisses) + " misses (" +
         percent(CommutHitRate) + ")\n";
  Out += "  cert checks:          " + std::to_string(CertChecks) + "\n";
  Out += "  proved programs:      " + std::to_string(ProvedPrograms) + "\n";
  Out += "  oracle skips:         " + std::to_string(OracleSkips) + "\n";
  uint64_t Copies = Memory.ChunkShares + Memory.DeepCopies;
  double ShareRate =
      Copies ? static_cast<double>(Memory.ChunkShares) /
                   static_cast<double>(Copies)
             : 0.0;
  Out += "  machine copies:       " + std::to_string(Memory.MachineCopies) +
         "\n";
  Out += "  log chunk copies:     " + std::to_string(Memory.ChunkShares) +
         " shared / " + std::to_string(Memory.DeepCopies) + " cloned (" +
         percent(ShareRate) + " shared)\n";
  Out += "  snapshot bytes:       " + std::to_string(Memory.SnapshotBytes) +
         "\n";
  Out += "  arena bytes:          " + std::to_string(Memory.ArenaBytes) +
         "\n";
  return Out;
}

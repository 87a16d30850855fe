//===- sim/Scheduler.cpp - Interleaving scheduler ---------------------------===//

#include "sim/Scheduler.h"

using namespace pushpull;

RunStats Scheduler::run(TMEngine &E) {
  PushPullMachine &M = E.machine();
  Rng R(Config.Seed);
  RunStats Stats;

  size_t NumThreads = M.threads().size();
  size_t RoundRobinNext = 0;

  // PCT state: random distinct priorities (higher runs first) and a set
  // of step indices where the running thread's priority drops to the
  // bottom.  Change points are scattered over an assumed run length; if
  // the run outlives them, the schedule simply stays priority-driven.
  std::vector<int64_t> Priority(NumThreads);
  for (size_t I = 0; I < NumThreads; ++I)
    Priority[I] = static_cast<int64_t>(R.next() >> 1); // Positive.
  std::vector<uint64_t> ChangeAt;
  if (Config.Policy == SchedulePolicy::PriorityChangePoints) {
    uint64_t Horizon = Config.MaxSteps < 4096 ? Config.MaxSteps : 4096;
    for (unsigned I = 0; I < Config.ChangePoints; ++I)
      ChangeAt.push_back(Horizon > 1 ? R.below(Horizon) : 0);
  }
  int64_t NextDropPriority = -1; // Drops go below every initial priority.

  std::vector<TxId> Runnable;
  while (!M.quiescent() && Stats.SchedulerSteps < Config.MaxSteps) {
    // The threads the policy may pick.  Replay consumes the recording
    // verbatim — its one candidate is the next recorded pick, done or not,
    // so a replayed run performs exactly the recorded step sequence — and
    // ends with the recording or at a pick naming no thread.
    Runnable.clear();
    if (Config.Policy == SchedulePolicy::Replay) {
      if (Stats.SchedulerSteps < Config.ReplayPicks.size() &&
          Config.ReplayPicks[Stats.SchedulerSteps] < NumThreads)
        Runnable.push_back(Config.ReplayPicks[Stats.SchedulerSteps]);
    } else {
      for (const ThreadState &Th : M.threads())
        if (!Th.done())
          Runnable.push_back(Th.Tid);
    }
    if (Runnable.empty())
      break;

    TxId Pick = Runnable[0];
    switch (Config.Policy) {
    case SchedulePolicy::RoundRobin: {
      // Next runnable thread at or after the cursor.
      for (TxId T : Runnable)
        if (T >= RoundRobinNext) {
          Pick = T;
          break;
        }
      RoundRobinNext = (Pick + 1) % NumThreads;
      break;
    }
    case SchedulePolicy::RandomUniform:
      Pick = R.pick(Runnable);
      break;
    case SchedulePolicy::PriorityChangePoints: {
      for (TxId T : Runnable)
        if (Priority[T] > Priority[Pick])
          Pick = T;
      for (uint64_t CP : ChangeAt)
        if (CP == Stats.SchedulerSteps)
          Priority[Pick] = NextDropPriority--; // Drop below everyone.
      break;
    }
    case SchedulePolicy::Replay: // The recorded pick.
      break;
    }

    if (Config.CapturePicks)
      Config.CapturePicks->push_back(static_cast<uint32_t>(Pick));
    StepStatus S = E.step(Pick);
    ++Stats.SchedulerSteps;
    switch (S) {
    case StepStatus::Blocked:
      ++Stats.BlockedSteps;
      // Under priority scheduling a blocked thread must yield, or it
      // would spin above the lower-priority thread it is waiting for.
      if (Config.Policy == SchedulePolicy::PriorityChangePoints)
        Priority[Pick] = NextDropPriority--;
      break;
    case StepStatus::Committed:
      ++Stats.Commits;
      break;
    case StepStatus::Aborted:
      ++Stats.Aborts;
      break;
    case StepStatus::Progress:
    case StepStatus::Finished:
      break;
    }
  }

  Stats.Quiescent = M.quiescent();
  Stats.absorbTrace(M.trace());
  Stats.CommittedOps = M.committedLog().size();
  // Engines may count aborts performed inside composite steps; prefer the
  // engine's own number when it is larger (scheduler only sees returned
  // statuses).
  if (E.aborts() > Stats.Aborts)
    Stats.Aborts = E.aborts();
  return Stats;
}

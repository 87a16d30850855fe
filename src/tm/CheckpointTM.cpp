//===- tm/CheckpointTM.cpp - Checkpoints / closed nesting --------------------===//

#include "tm/CheckpointTM.h"

#include "lang/StepFin.h"

#include <algorithm>

using namespace pushpull;

CheckpointTM::CheckpointTM(PushPullMachine &M, CheckpointConfig Config)
    : TMEngine(M), Config(Config) {
  assert(this->Config.CheckpointEvery > 0 && "zero checkpoint interval");
  Rng Root(this->Config.Seed);
  Per.resize(M.threads().size());
  for (PerThread &P : Per)
    P.R = Root.split();
}

void CheckpointTM::fullAbort(TxId T) {
  [[maybe_unused]] bool Ok = rewindAll(T);
  assert(Ok && "optimistic rewind cannot be refused");
  ++Aborts;
  ++FullAborts;
  Per[T].SnapshotDone = false;
  Per[T].Checkpoints.clear();
  Per[T].OpsSinceCheckpoint = 0;
  Per[T].RetryingFromCheckpoint = false;
}

StepStatus CheckpointTM::step(TxId T) {
  const ThreadState &Th = M->thread(T);
  if (Th.done())
    return StepStatus::Finished;

  if (!Th.InTx) {
    M->beginTx(T);
    Per[T].SnapshotDone = false;
    Per[T].Checkpoints.clear();
    Per[T].OpsSinceCheckpoint = 0;
    Per[T].RetryingFromCheckpoint = false;
    return StepStatus::Progress;
  }

  if (!Per[T].SnapshotDone) {
    for (size_t GI = 0; GI < M->global().size(); ++GI) {
      const GlobalEntry &E = M->global()[GI];
      if (E.Kind == GlobalKind::Committed && !Th.L.contains(E.Op.Id))
        M->pull(T, GI);
    }
    Per[T].SnapshotDone = true;
    // The snapshot boundary is the outermost placemarker.
    Per[T].Checkpoints = {M->thread(T).L.size()};
    return StepStatus::Progress;
  }

  if (fin(Th.Code))
    return commitPhase(T);

  std::vector<AppChoice> Choices = M->appChoices(T);
  if (Choices.empty()) {
    fullAbort(T);
    return StepStatus::Aborted;
  }
  const AppChoice &C = Choices[Per[T].R.below(Choices.size())];
  size_t CompIdx = Per[T].R.below(C.Completions.size());
  M->app(T, C.StepIdx, CompIdx);
  if (++Per[T].OpsSinceCheckpoint >= Config.CheckpointEvery) {
    // Drop a placemarker (a closed-nesting boundary).
    Per[T].Checkpoints.push_back(M->thread(T).L.size());
    Per[T].OpsSinceCheckpoint = 0;
  }
  return StepStatus::Progress;
}

StepStatus CheckpointTM::commitPhase(TxId T) {
  // Dry-run validation; on failure note *which* operation failed.
  size_t FailedAt = firstRejectedPush(T);

  if (FailedAt == LocalLog::npos) {
    for (size_t I : M->thread(T).L.indicesOf(LocalKind::NotPushed)) {
      [[maybe_unused]] RuleResult R = M->push(T, I);
      assert(R.Applied && "validated push must succeed");
    }
    [[maybe_unused]] RuleResult R = M->commit(T);
    assert(R.Applied && "optimistic commit cannot fail after push-all");
    return StepStatus::Committed;
  }

  // Validation failed at local index FailedAt.  Escalate to a full abort
  // if the previous partial retry already failed; otherwise rewind only
  // to the latest placemarker at or before the failing operation.
  if (Per[T].RetryingFromCheckpoint) {
    fullAbort(T);
    return StepStatus::Aborted;
  }
  size_t Target = 0;
  for (size_t Cp : Per[T].Checkpoints)
    if (Cp <= FailedAt)
      Target = std::max(Target, Cp);
  if (Target == 0) {
    fullAbort(T);
    return StepStatus::Aborted;
  }
  if (!rewindTo(T, Target)) {
    fullAbort(T);
    return StepStatus::Aborted;
  }
  // Refresh the view: the re-executed suffix must see the commits that
  // invalidated it.  A committed operation that cannot be pulled (it
  // conflicts with the *kept* prefix) dooms the retry — escalate now.
  for (size_t GI = 0; GI < M->global().size(); ++GI) {
    const GlobalEntry &E = M->global()[GI];
    if (E.Kind != GlobalKind::Committed ||
        M->thread(T).L.contains(E.Op.Id))
      continue;
    if (!M->pull(T, GI).Applied) {
      fullAbort(T);
      return StepStatus::Aborted;
    }
  }
  // Drop placemarkers beyond the rewind point.
  Per[T].Checkpoints.erase(
      std::remove_if(Per[T].Checkpoints.begin(), Per[T].Checkpoints.end(),
                     [&](size_t Cp) { return Cp > Target; }),
      Per[T].Checkpoints.end());
  Per[T].OpsSinceCheckpoint = 0;
  Per[T].RetryingFromCheckpoint = true;
  ++Aborts;
  ++PartialAborts;
  return StepStatus::Aborted;
}

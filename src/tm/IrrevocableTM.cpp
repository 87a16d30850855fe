//===- tm/IrrevocableTM.cpp - Welc et al. irrevocability --------------------===//

#include "tm/IrrevocableTM.h"

#include "lang/StepFin.h"

using namespace pushpull;

IrrevocableTM::IrrevocableTM(PushPullMachine &M, IrrevocableConfig Config)
    : TMEngine(M), Config(Config) {
  Rng Root(this->Config.Seed);
  Per.resize(M.threads().size());
  for (PerThread &P : Per)
    P.R = Root.split();
}

uint64_t IrrevocableTM::irrevocableRollbacks() const {
  uint64_t N = 0;
  for (const TraceEvent &E : M->trace()) {
    if (E.Tid != Config.IrrevocableThread)
      continue;
    if (E.Rule == RuleKind::UnApp || E.Rule == RuleKind::UnPush ||
        E.Rule == RuleKind::UnPull)
      ++N;
  }
  return N;
}

StepStatus IrrevocableTM::step(TxId T) {
  if (M->thread(T).done())
    return StepStatus::Finished;
  if (T == Config.IrrevocableThread)
    return stepIrrevocable(T);
  return stepOptimistic(T);
}

StepStatus IrrevocableTM::stepIrrevocable(TxId T) {
  const ThreadState &Th = M->thread(T);
  if (!Th.InTx) {
    M->beginTx(T);
    return StepStatus::Progress;
  }
  if (fin(Th.Code)) {
    // An irrevocable commit cannot fail; wait defensively if it ever does
    // (never roll back).
    if (!M->commit(T).Applied)
      return StepStatus::Blocked;
    return StepStatus::Committed;
  }

  // Catch up on committed state, then APP + PUSH in the same step.
  for (size_t GI = 0; GI < M->global().size(); ++GI) {
    const GlobalEntry &E = M->global()[GI];
    if (E.Kind == GlobalKind::Committed && !Th.L.contains(E.Op.Id))
      M->pull(T, GI);
  }
  std::vector<AppChoice> Choices = M->appChoices(T);
  if (Choices.empty())
    return StepStatus::Blocked; // Never abort: wait instead.
  const AppChoice &C = Choices[Per[T].R.below(Choices.size())];
  size_t CompIdx = Per[T].R.below(C.Completions.size());
  if (!M->app(T, C.StepIdx, CompIdx).Applied)
    return StepStatus::Blocked;
  size_t Last = M->thread(T).L.size() - 1;
  if (!M->push(T, Last).Applied) {
    // Cannot publish yet; retract the APP (a local bookkeeping move, not
    // a transaction rollback in the algorithm's sense) and wait.
    M->unapp(T);
    return StepStatus::Blocked;
  }
  return StepStatus::Progress;
}

StepStatus IrrevocableTM::stepOptimistic(TxId T) {
  const ThreadState &Th = M->thread(T);
  if (!Th.InTx) {
    M->beginTx(T);
    Per[T].SnapshotDone = false;
    return StepStatus::Progress;
  }
  if (!Per[T].SnapshotDone) {
    for (size_t GI = 0; GI < M->global().size(); ++GI) {
      const GlobalEntry &E = M->global()[GI];
      if (E.Kind == GlobalKind::Committed && !Th.L.contains(E.Op.Id))
        M->pull(T, GI);
    }
    Per[T].SnapshotDone = true;
    return StepStatus::Progress;
  }
  if (fin(Th.Code)) {
    // Validate against G — including the irrevocable thread's uncommitted
    // eager pushes — then push-all + CMT uninterleaved.
    if (firstRejectedPush(T) != LocalLog::npos) {
      abortAndRetry(T);
      return StepStatus::Aborted;
    }
    for (size_t I : Th.L.indicesOf(LocalKind::NotPushed)) {
      [[maybe_unused]] RuleResult R = M->push(T, I);
      assert(R.Applied && "validated push must succeed");
    }
    if (!M->commit(T).Applied) {
      abortAndRetry(T);
      return StepStatus::Aborted;
    }
    return StepStatus::Committed;
  }
  std::vector<AppChoice> Choices = M->appChoices(T);
  if (Choices.empty()) {
    abortAndRetry(T);
    return StepStatus::Aborted;
  }
  const AppChoice &C = Choices[Per[T].R.below(Choices.size())];
  size_t CompIdx = Per[T].R.below(C.Completions.size());
  M->app(T, C.StepIdx, CompIdx);
  return StepStatus::Progress;
}

void IrrevocableTM::abortAndRetry(TxId T) {
  [[maybe_unused]] bool Ok = rewindAll(T);
  assert(Ok && "optimistic rewind cannot be refused");
  ++Aborts;
  Per[T].SnapshotDone = false;
}

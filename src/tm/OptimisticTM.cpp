//===- tm/OptimisticTM.cpp - TL2/TinySTM-style optimism ---------------------===//

#include "tm/OptimisticTM.h"

#include "lang/StepFin.h"

using namespace pushpull;

OptimisticTM::OptimisticTM(PushPullMachine &M, OptimisticConfig Config)
    : TMEngine(M) {
  Rng Root(Config.Seed);
  Per.resize(M.threads().size());
  for (PerThread &P : Per)
    P.R = Root.split();
}

StepStatus OptimisticTM::step(TxId T) {
  const ThreadState &Th = M->thread(T);
  if (Th.done())
    return StepStatus::Finished;

  if (!Th.InTx) {
    M->beginTx(T);
    Per[T].SnapshotDone = false;
    return StepStatus::Progress;
  }

  if (!Per[T].SnapshotDone) {
    // Snapshot: PULL every committed operation, in shared-log order.
    // (Between engine steps every G entry is committed: optimistic commits
    // push and CMT inside one step.)
    for (size_t GI = 0; GI < M->global().size(); ++GI) {
      const GlobalEntry &E = M->global()[GI];
      if (E.Kind != GlobalKind::Committed ||
          Th.L.contains(E.Op.Id))
        continue;
      M->pull(T, GI); // In-order committed pulls satisfy all criteria.
    }
    Per[T].SnapshotDone = true;
    return StepStatus::Progress;
  }

  if (fin(Th.Code))
    return commitPhase(T);

  std::vector<AppChoice> Choices = M->appChoices(T);
  if (Choices.empty()) {
    // The program cannot proceed under this snapshot (e.g. an op's
    // arguments name an out-of-domain key).  Treat as an abort+retry.
    abortAndRetry(T);
    return StepStatus::Aborted;
  }
  const AppChoice &C = Choices[Per[T].R.below(Choices.size())];
  size_t CompIdx = Per[T].R.below(C.Completions.size());
  M->app(T, C.StepIdx, CompIdx);
  return StepStatus::Progress;
}

StepStatus OptimisticTM::commitPhase(TxId T) {
  // Uninterleaved: validate, then push-all in APP order, then CMT, within
  // one step.  Validation ("check the second PUSH condition on all of
  // their effects", Sec. 6.2) is a dry run on a scratch copy of the
  // machine, so a failed validation aborts with UNAPP/UNPULL only — an
  // optimistic transaction never needs UNPUSH.
  if (firstRejectedPush(T) != LocalLog::npos) {
    // Validation failure: a transaction that committed since our
    // snapshot conflicts with one of its operations (PUSH criterion (iii)).
    abortAndRetry(T);
    return StepStatus::Aborted;
  }
  for (size_t I : M->thread(T).L.indicesOf(LocalKind::NotPushed)) {
    [[maybe_unused]] RuleResult R = M->push(T, I);
    assert(R.Applied && "validated push must succeed");
  }
  if (!M->commit(T).Applied) {
    abortAndRetry(T);
    return StepStatus::Aborted;
  }
  return StepStatus::Committed;
}

void OptimisticTM::abortAndRetry(TxId T) {
  [[maybe_unused]] bool Ok = rewindAll(T);
  assert(Ok && "optimistic rewind cannot be refused: nothing we pushed "
               "stays in G across steps and nobody pulls our effects");
  ++Aborts;
  Per[T].SnapshotDone = false; // Re-snapshot on retry.
}

//===- tm/HtmTM.cpp - Simulated hardware transactional memory ---------------===//

#include "tm/HtmTM.h"

#include "lang/StepFin.h"

using namespace pushpull;

HtmTM::HtmTM(PushPullMachine &M, HtmConfig Config)
    : TMEngine(M), Config(Config) {
  Rng Root(this->Config.Seed);
  Per.resize(M.threads().size());
  for (PerThread &P : Per)
    P.R = Root.split();
}

std::pair<std::string, Value> HtmTM::wordOf(const ResolvedCall &Call) {
  return {Call.Object, Call.Args.empty() ? Value(-1) : Call.Args[0]};
}

bool HtmTM::isWriteLike(const ResolvedCall &Call) {
  return Call.Method != "read" && Call.Method != "get" &&
         Call.Method != "contains" && Call.Method != "containsKey" &&
         Call.Method != "size";
}

bool HtmTM::wordConflict(TxId T, const ResolvedCall &Call,
                         bool IsWrite) const {
  auto W = wordOf(Call);
  for (size_t O = 0; O < Per.size(); ++O) {
    if (O == T || !M->thread(static_cast<TxId>(O)).InTx)
      continue;
    const PerThread &Other = Per[O];
    if (Other.WriteSet.count(W))
      return true;
    if (IsWrite && Other.ReadSet.count(W))
      return true;
  }
  return false;
}

StepStatus HtmTM::abortSelf(TxId T) {
  [[maybe_unused]] bool Ok = rewindAll(T);
  assert(Ok && "HTM rewind cannot be refused: nobody pulls uncommitted "
               "hardware state");
  Per[T].ReadSet.clear();
  Per[T].WriteSet.clear();
  ++Aborts;
  ++Per[T].Retries;
  return StepStatus::Aborted;
}

StepStatus HtmTM::step(TxId T) {
  const ThreadState &Th = M->thread(T);
  if (Th.done())
    return StepStatus::Finished;

  if (!Th.InTx) {
    // RTM fallback: after too many aborts, serialize behind a global lock.
    if (Per[T].Retries > Config.MaxRetries && !Per[T].HoldsFallback) {
      if (FallbackLock != NoOwner && FallbackLock != T)
        return StepStatus::Blocked;
      FallbackLock = T;
      Per[T].HoldsFallback = true;
      ++FallbackAcquisitions;
    }
    // Even without wanting the lock, wait while someone else holds it.
    if (FallbackLock != NoOwner && FallbackLock != T)
      return StepStatus::Blocked;
    M->beginTx(T);
    Per[T].ReadSet.clear();
    Per[T].WriteSet.clear();
    return StepStatus::Progress;
  }

  if (fin(Th.Code)) {
    // An HTM commit cannot fail (all effects pushed eagerly, all pulls
    // committed); abort defensively if a configuration ever breaks that.
    if (!M->commit(T).Applied)
      return abortSelf(T);
    Per[T].ReadSet.clear();
    Per[T].WriteSet.clear();
    Per[T].Retries = 0;
    if (Per[T].HoldsFallback) {
      Per[T].HoldsFallback = false;
      FallbackLock = NoOwner;
    }
    return StepStatus::Committed;
  }

  // Catch up on committed state so the APP's completion — and therefore
  // PUSH criterion (iii) — reflects the current coherent memory.
  for (size_t GI = 0; GI < M->global().size(); ++GI) {
    const GlobalEntry &E = M->global()[GI];
    if (E.Kind == GlobalKind::Committed && !Th.L.contains(E.Op.Id))
      M->pull(T, GI);
  }

  std::vector<AppChoice> Choices = M->appChoices(T);
  if (Choices.empty())
    return abortSelf(T);
  const AppChoice &C = Choices[Per[T].R.below(Choices.size())];
  auto Call = C.Item.Call.resolve(M->thread(T).Sigma);
  assert(Call && "appChoices returned an unresolvable call");
  bool IsWrite = isWriteLike(*Call);

  if (Config.WordGranularity && wordConflict(T, *Call, IsWrite)) {
    // The coherence protocol would abort us here.  Count it as a false
    // conflict when the semantic criteria would have accepted the push:
    // fire both in place and roll them back.
    PushPullMachine::UndoMark Mark = M->mark();
    size_t CompIdx = Per[T].R.below(C.Completions.size());
    if (M->app(T, C.StepIdx, CompIdx).Applied &&
        M->push(T, M->thread(T).L.size() - 1).Applied)
      ++FalseConflicts;
    M->rollbackTo(Mark);
    return abortSelf(T);
  }

  size_t CompIdx = Per[T].R.below(C.Completions.size());
  if (!M->app(T, C.StepIdx, CompIdx).Applied)
    return abortSelf(T);

  // Eager publication: the store/load becomes coherence-visible at once.
  size_t Last = M->thread(T).L.size() - 1;
  if (!M->push(T, Last).Applied) {
    // Semantic conflict with another in-flight hardware transaction.
    return abortSelf(T);
  }

  (IsWrite ? Per[T].WriteSet : Per[T].ReadSet).insert(wordOf(*Call));
  return StepStatus::Progress;
}

//===- tm/Engine.cpp - TM algorithm engines ---------------------------------===//

#include "tm/Engine.h"

using namespace pushpull;

std::string pushpull::toString(StepStatus S) {
  switch (S) {
  case StepStatus::Progress:
    return "progress";
  case StepStatus::Blocked:
    return "blocked";
  case StepStatus::Committed:
    return "committed";
  case StepStatus::Aborted:
    return "aborted";
  case StepStatus::Finished:
    return "finished";
  }
  return "?";
}

TMEngine::~TMEngine() = default;

bool TMEngine::popTail(TxId T) {
  const ThreadState &Th = M->thread(T);
  if (Th.L.empty())
    return false;
  size_t Last = Th.L.size() - 1;
  switch (Th.L[Last].Kind) {
  case LocalKind::Pulled:
    return M->unpull(T, Last).Applied;
  case LocalKind::NotPushed:
    return M->unapp(T).Applied;
  case LocalKind::Pushed:
    // UNPUSH turns the entry back into npshd, then UNAPP rewinds it.  In a
    // real implementation the UNPUSH is an inverse operation on the shared
    // state (Figure 2's catch blocks); in the log model it is removal of
    // the shared-log entry.
    if (!M->unpush(T, Last).Applied)
      return false;
    return M->unapp(T).Applied;
  }
  return false;
}

bool TMEngine::rewindTo(TxId T, size_t KeepEntries) {
  while (M->thread(T).L.size() > KeepEntries)
    if (!popTail(T))
      return false;
  return true;
}

bool TMEngine::rewindAll(TxId T) { return rewindTo(T, 0); }

size_t TMEngine::firstRejectedPush(TxId T) {
  PushPullMachine::UndoMark Mark = M->mark();
  size_t Rejected = LocalLog::npos;
  for (size_t I : M->thread(T).L.indicesOf(LocalKind::NotPushed))
    if (!M->push(T, I).Applied) {
      Rejected = I;
      break;
    }
  M->rollbackTo(Mark);
  return Rejected;
}

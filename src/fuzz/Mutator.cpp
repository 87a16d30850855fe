//===- fuzz/Mutator.cpp - Structural program mutation -----------------------===//

#include "fuzz/Mutator.h"

#include "support/Str.h"

#include <algorithm>

using namespace pushpull;

namespace {

void collectOps(const CodePtr &C, std::vector<CodePtr> &Out, bool &Straight) {
  switch (C->kind()) {
  case CodeKind::Call:
    Out.push_back(C);
    return;
  case CodeKind::Seq:
    collectOps(C->lhs(), Out, Straight);
    collectOps(C->rhs(), Out, Straight);
    return;
  case CodeKind::Skip:
    return;
  case CodeKind::Tx:
    collectOps(C->body(), Out, Straight);
    return;
  default: // Choice/Loop: not straight-line.
    Straight = false;
    return;
  }
}

/// Pick a random (thread, tx) pair; nullopt when the case has none.
std::optional<std::pair<size_t, size_t>> pickTx(const FuzzCase &Case,
                                                Rng &R) {
  std::vector<std::pair<size_t, size_t>> All;
  for (size_t T = 0; T < Case.Threads.size(); ++T)
    for (size_t X = 0; X < Case.Threads[T].size(); ++X)
      All.push_back({T, X});
  if (All.empty())
    return std::nullopt;
  return All[R.below(All.size())];
}

} // namespace

std::optional<std::vector<CodePtr>>
pushpull::straightLineOps(const CodePtr &TxNode) {
  std::vector<CodePtr> Ops;
  bool Straight = true;
  collectOps(TxNode, Ops, Straight);
  if (!Straight)
    return std::nullopt;
  return Ops;
}

CodePtr pushpull::txFromOps(const std::vector<CodePtr> &Ops) {
  return tx(seqAll(Ops));
}

bool Mutator::mutateOnce(FuzzCase &Case, Rng &R) const {
  switch (R.below(10)) {
  case 0: { // Drop one operation (but never the case's last one).
    if (Case.totalOps() <= 1)
      return false;
    auto TX = pickTx(Case, R);
    if (!TX)
      return false;
    CodePtr &Tx = Case.Threads[TX->first][TX->second];
    auto Ops = straightLineOps(Tx);
    if (!Ops || Ops->empty())
      return false;
    Ops->erase(Ops->begin() + R.below(Ops->size()));
    if (Ops->empty())
      Case.Threads[TX->first].erase(Case.Threads[TX->first].begin() +
                                    TX->second);
    else
      Tx = txFromOps(*Ops);
    return true;
  }
  case 1: { // Duplicate an operation in place.
    auto TX = pickTx(Case, R);
    if (!TX)
      return false;
    CodePtr &Tx = Case.Threads[TX->first][TX->second];
    auto Ops = straightLineOps(Tx);
    if (!Ops || Ops->empty())
      return false;
    size_t I = R.below(Ops->size());
    Ops->insert(Ops->begin() + I, (*Ops)[I]);
    Tx = txFromOps(*Ops);
    return true;
  }
  case 2: { // Swap two adjacent operations.
    auto TX = pickTx(Case, R);
    if (!TX)
      return false;
    CodePtr &Tx = Case.Threads[TX->first][TX->second];
    auto Ops = straightLineOps(Tx);
    if (!Ops || Ops->size() < 2)
      return false;
    size_t I = R.below(Ops->size() - 1);
    std::swap((*Ops)[I], (*Ops)[I + 1]);
    Tx = txFromOps(*Ops);
    return true;
  }
  case 3: { // Perturb a literal argument by +-1 (clamped to [0, 4]).
    auto TX = pickTx(Case, R);
    if (!TX)
      return false;
    CodePtr &Tx = Case.Threads[TX->first][TX->second];
    auto Ops = straightLineOps(Tx);
    if (!Ops || Ops->empty())
      return false;
    size_t I = R.below(Ops->size());
    MethodExpr M = (*Ops)[I]->call();
    std::vector<size_t> Lits;
    for (size_t A = 0; A < M.Args.size(); ++A)
      if (std::holds_alternative<Value>(M.Args[A]))
        Lits.push_back(A);
    if (Lits.empty())
      return false;
    size_t A = Lits[R.below(Lits.size())];
    Value V = std::get<Value>(M.Args[A]);
    V = R.chance(1, 2) ? V + 1 : V - 1;
    M.Args[A] = std::clamp<Value>(V, 0, 4);
    (*Ops)[I] = Code::makeCall(std::move(M));
    Tx = txFromOps(*Ops);
    return true;
  }
  case 4: { // Drop a whole transaction.
    if (Case.totalTxs() <= 1)
      return false;
    auto TX = pickTx(Case, R);
    if (!TX)
      return false;
    Case.Threads[TX->first].erase(Case.Threads[TX->first].begin() +
                                  TX->second);
    return true;
  }
  case 5: { // Drop a whole thread.
    std::vector<size_t> NonEmpty;
    for (size_t T = 0; T < Case.Threads.size(); ++T)
      if (!Case.Threads[T].empty())
        NonEmpty.push_back(T);
    if (NonEmpty.size() < 2)
      return false;
    Case.Threads.erase(Case.Threads.begin() +
                       NonEmpty[R.below(NonEmpty.size())]);
    return true;
  }
  case 6: { // Clone a transaction onto another thread (conflict amplifier).
    if (Case.Threads.size() < 2)
      return false;
    auto TX = pickTx(Case, R);
    if (!TX)
      return false;
    size_t To = R.below(Case.Threads.size());
    if (To == TX->first)
      To = (To + 1) % Case.Threads.size();
    Case.Threads[To].push_back(Case.Threads[TX->first][TX->second]);
    return true;
  }
  case 7: { // Make one operation optional: op  ~>  (op + skip).
    auto TX = pickTx(Case, R);
    if (!TX)
      return false;
    CodePtr &Tx = Case.Threads[TX->first][TX->second];
    auto Ops = straightLineOps(Tx);
    if (!Ops || Ops->empty())
      return false;
    size_t I = R.below(Ops->size());
    (*Ops)[I] = choice((*Ops)[I], skip());
    Tx = txFromOps(*Ops);
    return true;
  }
  case 8: { // Reseed/flip the schedule.
    Case.ScheduleSeed = R.next() % 1000000;
    switch (R.below(3)) {
    case 0:
      Case.Policy = SchedulePolicy::RandomUniform;
      break;
    case 1:
      Case.Policy = SchedulePolicy::RoundRobin;
      break;
    default:
      Case.Policy = SchedulePolicy::PriorityChangePoints;
      break;
    }
    return true;
  }
  default: // Reseed the engine's own randomness.
    Case.EngineOpts["seed"] = std::to_string(R.next() % 100000);
    return true;
  }
}

FuzzCase Mutator::mutate(const FuzzCase &Case, Rng &R) const {
  FuzzCase Out = Case;
  unsigned N = static_cast<unsigned>(R.range(1, Config.MaxMutations));
  for (unsigned I = 0; I < N;) {
    if (mutateOnce(Out, R))
      ++I;
    else if (mutateOnce(Out, R)) // One retry with a fresh draw, then give up
      ++I;                       // on this slot (tiny cases reject a lot).
    else
      break;
  }
  // Dropping transactions can leave threads empty; prune them so thread
  // ids in the replayed scenario stay dense.
  Out.Threads.erase(std::remove_if(Out.Threads.begin(), Out.Threads.end(),
                                   [](const std::vector<CodePtr> &T) {
                                     return T.empty();
                                   }),
                    Out.Threads.end());
  if (Out.Threads.empty())
    return Case; // Over-aggressive mutation; keep the original.
  normalizeThreadRefs(Out);
  return Out;
}

void pushpull::normalizeThreadRefs(FuzzCase &Case) {
  auto It = Case.EngineOpts.find("irrevocable");
  if (It == Case.EngineOpts.end() || Case.Threads.empty())
    return;
  uint64_t T;
  if (!readWhole(It->second, 0, Case.Threads.size() - 1, T))
    It->second = std::to_string(Case.Threads.size() - 1);
}

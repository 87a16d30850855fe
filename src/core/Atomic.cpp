//===- core/Atomic.cpp - The atomic reference semantics --------------------===//

#include "core/Atomic.h"

#include "lang/StepFin.h"

#include <unordered_set>

using namespace pushpull;

AtomicMachine::AtomicMachine(const SequentialSpec &Spec, AtomicLimits Limits)
    : Spec(Spec), Limits(Limits) {}

std::vector<AtomicOutcome>
AtomicMachine::bigStep(const CodePtr &C, const Stack &Sigma,
                       const std::vector<Operation> &Log) {
  std::vector<AtomicOutcome> Out;
  std::vector<Operation> Work = Log;
  resetBudget();
  bigStepInner(C, Sigma, Spec.denote(Log), Work, 0,
               [&Out](const AtomicOutcome &O) {
                 Out.push_back(O);
                 return false; // Keep enumerating.
               });
  return Out;
}

bool AtomicMachine::canRun(const CodePtr &C, const Stack &Sigma,
                           const std::vector<Operation> &Log) {
  std::vector<Operation> Work = Log;
  resetBudget();
  return bigStepInner(C, Sigma, Spec.denote(Log), Work, 0,
                      [](const AtomicOutcome &) { return true; });
}

bool AtomicMachine::bigStepInner(
    const CodePtr &C, const Stack &Sigma, StateSet S,
    std::vector<Operation> &Log, size_t OpsUsed,
    const std::function<bool(const AtomicOutcome &)> &Emit) {
  if (budgetSpent())
    return false;

  // BSFIN: there is a reduction of c to skip with no method call.
  if (fin(C)) {
    ++OutcomesEmitted;
    AtomicOutcome O;
    O.Sigma = Sigma;
    O.Log = Log;
    if (Emit(O))
      return true;
  }

  if (OpsUsed >= Limits.MaxOpsPerTx)
    return false;

  // BSSTEP: pick a next reachable method, an allowed completion, recurse.
  for (const StepItem &It : step(C)) {
    auto Call = It.Call.resolve(Sigma);
    if (!Call)
      continue; // Unbound argument variable: this path is stuck.
    for (const Completion &Comp : Spec.completionsFrom(S, *Call)) {
      Operation Op;
      Op.Call = *Call;
      Op.Pre = Sigma;
      Op.Result = Comp.Result;
      Stack Post = Sigma;
      if (It.Call.ResultVar && Comp.Result)
        Post.set(*It.Call.ResultVar, *Comp.Result);
      Op.Post = Post;
      Op.Id = Ids.fresh();

      StateSet N = Spec.applyOp(S, Op);
      if (N.empty())
        continue; // Completion allowed in no state (shouldn't happen).
      Log.push_back(Op);
      bool Found = bigStepInner(It.Rest, Post, std::move(N), Log,
                                OpsUsed + 1, Emit);
      Log.pop_back();
      if (Found)
        return true;
      if (budgetSpent())
        return false;
    }
  }
  return false;
}

bool AtomicMachine::searchSerial(
    const std::vector<AtomicTx> &Txs, const std::vector<Operation> &Log,
    const std::function<bool(const AtomicOutcome &)> &Consume) {
  std::vector<Operation> Work = Log;
  resetBudget();
  return searchSerialInner(Txs, 0, Stack(), Spec.denote(Log), Work, Consume);
}

bool AtomicMachine::searchSerialInner(
    const std::vector<AtomicTx> &Txs, size_t Next, const Stack &,
    StateSet S, std::vector<Operation> &Log,
    const std::function<bool(const AtomicOutcome &)> &Consume) {
  if (Next == Txs.size()) {
    AtomicOutcome O;
    O.Log = Log;
    return Consume(O);
  }
  // AM_RUNTX for transaction Next, then the rest of the serial order.
  // Each transaction starts from its own recorded stack (threads do not
  // share stacks), so the per-call sigma is Txs[Next].Sigma.
  size_t Mark = Log.size();
  bool Found = bigStepInner(
      Txs[Next].Body, Txs[Next].Sigma, std::move(S), Log, 0,
      [&](const AtomicOutcome &Mid) {
        // The simulation demands the atomic run of this transaction end
        // with the same local stack the concurrent run ended with.
        if (Txs[Next].ExpectFinal && Mid.Sigma != *Txs[Next].ExpectFinal)
          return false;
        // Continue the serial run after this transaction's outcome.  The
        // recursive call works on a fresh copy of the accumulated log so
        // the enumeration in progress is not disturbed.
        std::vector<Operation> Rest = Mid.Log;
        return searchSerialInner(Txs, Next + 1, Mid.Sigma,
                                 Spec.denote(Rest), Rest, Consume);
      });
  Log.resize(Mark);
  return Found;
}

//===----------------------------------------------------------------------===//
// The serial search on denotations
//===----------------------------------------------------------------------===//

struct AtomicMachine::DenotationSearch {
  const std::vector<AtomicTx> &Txs;
  const std::function<bool(StateSetId)> &Consume;
  /// (transaction index << 32 | denotation) pairs already explored.
  std::unordered_set<uint64_t> Explored;
};

bool AtomicMachine::searchSerialDenotations(
    const std::vector<AtomicTx> &Txs,
    const std::function<bool(StateSetId)> &Consume) {
  resetBudget();
  DenotationSearch D{Txs, Consume, {}};
  return runTxFrom(D, 0, Spec.initialId());
}

bool AtomicMachine::runTxFrom(DenotationSearch &D, size_t Next,
                              StateSetId S) {
  // Exact memo: transaction Next starts from its own recorded stack, so
  // everything that follows this boundary depends on (Next, S) alone, and
  // an earlier visit already found no witness below it.
  if (!D.Explored.insert((static_cast<uint64_t>(Next) << 32) | S).second)
    return false;
  if (Next == D.Txs.size())
    return D.Consume(S);
  // AM_RUNTX for transaction Next; bigStepId continues with the rest of
  // the serial order at each of its BSFIN outcomes.
  return bigStepId(D, Next, D.Txs[Next].Body, D.Txs[Next].Sigma, S, 0);
}

bool AtomicMachine::bigStepId(DenotationSearch &D, size_t Next,
                              const CodePtr &C, const Stack &Sigma,
                              StateSetId S, size_t OpsUsed) {
  if (budgetSpent())
    return false;

  // BSFIN.  The simulation demands the atomic run of this transaction end
  // with the same local stack the concurrent run ended with.
  if (fin(C)) {
    ++OutcomesEmitted;
    const std::optional<Stack> &Expect = D.Txs[Next].ExpectFinal;
    if ((!Expect || Sigma == *Expect) && runTxFrom(D, Next + 1, S))
      return true;
  }

  if (OpsUsed >= Limits.MaxOpsPerTx)
    return false;

  // BSSTEP, as in bigStepInner, on the interned denotation.
  for (const StepItem &It : step(C)) {
    auto Call = It.Call.resolve(Sigma);
    if (!Call)
      continue; // Unbound argument variable: this path is stuck.
    std::vector<Completion> Comps = Spec.completionsFrom(Spec.setOf(S), *Call);
    Operation Op;
    Op.Call = std::move(*Call);
    for (const Completion &Comp : Comps) {
      Op.Result = Comp.Result;
      Op.KeyCache.reset(); // The key follows Result.
      StateSetId N = Spec.applyOpId(S, Op);
      if (Spec.table().setEmpty(N))
        continue; // Completion allowed in no state (shouldn't happen).
      Stack Post = Sigma;
      if (It.Call.ResultVar && Comp.Result)
        Post.set(*It.Call.ResultVar, *Comp.Result);
      if (bigStepId(D, Next, It.Rest, Post, N, OpsUsed + 1))
        return true;
      if (budgetSpent())
        return false;
    }
  }
  return false;
}

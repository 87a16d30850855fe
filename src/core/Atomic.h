//===- core/Atomic.h - The atomic reference semantics -----------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The idealized atomic semantics of Figure 3: transactions execute
/// instantly, without interruption from concurrent threads.  The engine of
/// the semantics is the big-step reduction
///
///     (c, sigma), l  =>  sigma', l'
///
/// built from BSSTEP (pick a next method (m, c2) in step(c) whose operation
/// the sequential specification allows, then reduce c2 fully) and BSFIN
/// (fin(c) holds: the transaction is done).
///
/// The PUSH/PULL serializability theorem (Theorem 5.17) is a simulation
/// against this machine; the `check/Serializability` oracle uses it as the
/// independent ground truth, searching atomic runs for one whose log the
/// concurrent committed log is precongruent to.
///
/// Two forms of the serial search exist.  searchSerial is Figure 3 to the
/// letter: it builds every atomic log operation by operation and hands
/// each complete log to the caller; tests use it as the log-level
/// reference.  searchSerialDenotations is the oracle's form.  Precongruence
/// (Definition 3.1) sees a log only through its denotation [[l]], so the
/// search carries the interned StateSetId of the atomic log instead of the
/// log.  Every transaction restarts from its own recorded stack, so what
/// follows a transaction boundary depends only on (transaction index,
/// denotation), and the search explores each such pair at most once.  The
/// caller sees each distinct final denotation once.  Both forms share the
/// MaxOutcomes budget, which counts every BSFIN emission; truncated()
/// says whether the budget cut the last search short.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_CORE_ATOMIC_H
#define PUSHPULL_CORE_ATOMIC_H

#include "core/Op.h"
#include "core/Spec.h"
#include "lang/Ast.h"

#include <functional>
#include <vector>

namespace pushpull {

/// One complete big-step outcome of a transaction (or serial run).
struct AtomicOutcome {
  Stack Sigma;
  std::vector<Operation> Log;
};

/// Exploration bounds for the (nondeterministic) big-step reduction.
struct AtomicLimits {
  /// Maximum operations per transaction (bounds loop unrolling).
  size_t MaxOpsPerTx = 64;
  /// Stop after this many complete outcomes (BSFIN emissions, counted
  /// over every transaction of a serial search) per big-step or search.
  size_t MaxOutcomes = 100000;
};

/// A thread's transaction in a serial run: its body code and starting
/// stack (the rewound otx of a committed PUSH/PULL transaction), plus an
/// optional constraint on the stack the big step must finish with — the
/// simulation of Theorem 5.17 requires the atomic replay to reproduce
/// each transaction's actual final sigma'.
struct AtomicTx {
  CodePtr Body;
  Stack Sigma;
  std::optional<Stack> ExpectFinal;
};

/// Executes Figure 3's semantics.
class AtomicMachine {
public:
  AtomicMachine(const SequentialSpec &Spec, AtomicLimits Limits = {});

  /// All big-step outcomes (c, sigma), l => sigma', l' (BSSTEP*/BSFIN).
  /// Extensions of \p Log are returned whole (prefix \p Log included).
  std::vector<AtomicOutcome> bigStep(const CodePtr &C, const Stack &Sigma,
                                     const std::vector<Operation> &Log);

  /// Run \p Txs serially in the given order from \p Log (AM_RUNTX chained);
  /// enumerate final logs, calling \p Consume on each.  Enumeration stops
  /// early when \p Consume returns true ("found what I was looking for");
  /// the return value says whether it ever did.  The log-level reference
  /// for searchSerialDenotations.
  bool searchSerial(const std::vector<AtomicTx> &Txs,
                    const std::vector<Operation> &Log,
                    const std::function<bool(const AtomicOutcome &)> &Consume);

  /// The same serial runs from the initial states, on denotations: calls
  /// \p Consume once per distinct final denotation [[l]] of an atomic log
  /// l, and stops when it returns true; the return value says whether it
  /// ever did.  Explores each (transaction index, denotation) pair once.
  bool searchSerialDenotations(const std::vector<AtomicTx> &Txs,
                               const std::function<bool(StateSetId)> &Consume);

  /// Did the MaxOutcomes budget cut the last bigStep/canRun/search short?
  bool truncated() const { return Truncated; }

  /// Convenience: is there any complete big-step of \p C at all?
  bool canRun(const CodePtr &C, const Stack &Sigma,
              const std::vector<Operation> &Log);

private:
  bool bigStepInner(const CodePtr &C, const Stack &Sigma, StateSet S,
                    std::vector<Operation> &Log, size_t OpsUsed,
                    const std::function<bool(const AtomicOutcome &)> &Emit);

  bool searchSerialInner(
      const std::vector<AtomicTx> &Txs, size_t Next, const Stack &Sigma,
      StateSet S, std::vector<Operation> &Log,
      const std::function<bool(const AtomicOutcome &)> &Consume);

  /// One denotational search (searchSerialDenotations).
  struct DenotationSearch;
  bool runTxFrom(DenotationSearch &D, size_t Next, StateSetId S);
  bool bigStepId(DenotationSearch &D, size_t Next, const CodePtr &C,
                 const Stack &Sigma, StateSetId S, size_t OpsUsed);

  /// Start counting a fresh bigStep/canRun/search against the budget.
  void resetBudget() {
    OutcomesEmitted = 0;
    Truncated = false;
  }
  /// Has the current bigStep/canRun/search used up MaxOutcomes?  Callers
  /// stop when it has, so a yes also records the search as truncated.
  bool budgetSpent() {
    if (OutcomesEmitted < Limits.MaxOutcomes)
      return false;
    Truncated = true;
    return true;
  }

  const SequentialSpec &Spec;
  AtomicLimits Limits;
  OpIdSource Ids;
  size_t OutcomesEmitted = 0;
  bool Truncated = false;
};

} // namespace pushpull

#endif // PUSHPULL_CORE_ATOMIC_H

//===- spec/QueueSpec.h - A FIFO queue (non-commutative) --------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded FIFO queue: the deliberately *non*-commutative stressor.
/// Almost no pair of queue operations are movers, so under this spec the
/// PUSH criteria force strict serial behaviour — the negative space of the
/// commutativity story (boosting gets no parallelism from a queue, as
/// Herlihy & Koskinen note for boosting generally).  Methods:
///
///   enq(v) -> 1 on success, 0 when full
///   deq()  -> front value, or Empty (-1) when empty
///   size() -> current length
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SPEC_QUEUESPEC_H
#define PUSHPULL_SPEC_QUEUESPEC_H

#include "core/Spec.h"

namespace pushpull {

/// A FIFO queue of capacity \p Capacity over values {0..NumVals-1}.
class QueueSpec : public SequentialSpec {
public:
  /// Result sentinel for deq() on an empty queue.
  static constexpr Value Empty = -1;

  QueueSpec(std::string Object, unsigned Capacity, unsigned NumVals);

  std::string name() const override;
  std::vector<State> initialStates() const override;
  std::vector<State> successors(const State &S,
                                const Operation &Op) const override;
  std::vector<Completion> completions(const State &S,
                                      const ResolvedCall &Call)
      const override;
  std::vector<Operation> probeOps() const override;
  std::vector<MethodSig> methods() const override;
  /// No algebraic shortcuts beyond object disjointness: queue operations
  /// genuinely fail to commute.
  Tri leftMoverHint(const Operation &A, const Operation &B) const override;

  const std::string &object() const { return Object; }

private:
  std::string Object;
  unsigned Capacity;
  unsigned NumVals;
};

} // namespace pushpull

#endif // PUSHPULL_SPEC_QUEUESPEC_H

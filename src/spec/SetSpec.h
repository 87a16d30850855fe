//===- spec/SetSpec.h - A set with per-key commutativity --------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sequential specification of a set over a finite universe — the
/// abstraction of the boosted ConcurrentSkipList of Figure 2 and
/// Section 7.  Methods:
///
///   add(k)      -> 1 if k was inserted, 0 if already present
///   remove(k)   -> 1 if k was removed, 0 if absent
///   contains(k) -> 0/1
///
/// Each element is a key holding its presence bit, 0 or 1.  The
/// commutativity structure is the one transactional boosting exploits
/// with per-key abstract locks: operations on distinct keys always
/// commute, which the keyed leftMoverHint states algebraically (and tests
/// cross-validate against the semantic decision procedure).  Inverses —
/// what a boosted abort executes as UNPUSH — are add(k) ~ remove(k) when
/// the add returned 1, and no-ops otherwise.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SPEC_SETSPEC_H
#define PUSHPULL_SPEC_SETSPEC_H

#include "spec/KeyedSpec.h"

namespace pushpull {

/// A set over the universe {0..Universe-1}.
class SetSpec : public KeyedSpec {
public:
  SetSpec(std::string Object, unsigned Universe);

  std::string name() const override;
  std::vector<Operation> probeOps() const override;
  std::vector<MethodSig> methods() const override;

  unsigned universe() const { return numKeys(); }

private:
  std::optional<Value> step(Value Cur, const Operation &Op) const override;
  std::vector<Completion> results(Value Cur,
                                  const ResolvedCall &Call) const override;
};

} // namespace pushpull

#endif // PUSHPULL_SPEC_SETSPEC_H

//===- spec/RegisterSpec.h - Word read/write memory -------------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sequential specification of a bank of memory words — the substrate
/// of the word-based STMs of Section 6.2 (TL2, TinySTM, Intel STM) and of
/// the simulated HTM of Section 7.  Methods:
///
///   read(r)      -> current value of register r
///   write(r, v)  -> v (echoes the written value)
///
/// This is the paper's running example of `allowed`:
/// allowed l.<a := x, [x->5], [x->5, a->5], id> but not with a->3.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SPEC_REGISTERSPEC_H
#define PUSHPULL_SPEC_REGISTERSPEC_H

#include "spec/KeyedSpec.h"

namespace pushpull {

/// A bank of \p NumRegs registers over the value domain {0..NumVals-1}.
/// The finite domain keeps the probe alphabet and state space finite, so
/// the coinductive checks are exact decision procedures here.  The keyed
/// hint decides every register pair: different registers commute, and a
/// same-register pair is simulated over the register's values.
class RegisterSpec : public KeyedSpec {
public:
  RegisterSpec(std::string Object, unsigned NumRegs, unsigned NumVals);

  std::string name() const override;
  std::vector<Operation> probeOps() const override;
  std::vector<MethodSig> methods() const override;

  unsigned numRegs() const { return numKeys(); }
  unsigned numVals() const { return NumVals; }

private:
  std::optional<Value> step(Value Cur, const Operation &Op) const override;
  std::vector<Completion> results(Value Cur,
                                  const ResolvedCall &Call) const override;
  bool validVal(Value V) const {
    return V >= 0 && V < static_cast<Value>(NumVals);
  }

  unsigned NumVals;
};

} // namespace pushpull

#endif // PUSHPULL_SPEC_REGISTERSPEC_H

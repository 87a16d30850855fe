//===- spec/CounterSpec.h - Commutative counters ----------------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters with modular arithmetic — the "HTM int size, x, y" variables
/// of the Section 7 example.  Methods:
///
///   inc(i)     -> no result       dec(i) -> no result
///   add(i, k)  -> no result       read(i) -> current value
///
/// Updates are blind (they return nothing), so updates of one counter
/// commute with each other but not with reads — the classic boosting
/// example; the keyed hint finds both by simulation.  Arithmetic is modulo
/// a configured modulus so the state space stays finite and the
/// coinductive checks stay exact.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SPEC_COUNTERSPEC_H
#define PUSHPULL_SPEC_COUNTERSPEC_H

#include "spec/KeyedSpec.h"

namespace pushpull {

/// \p NumCounters counters over Z_Modulus.
class CounterSpec : public KeyedSpec {
public:
  CounterSpec(std::string Object, unsigned NumCounters, unsigned Modulus);

  std::string name() const override;
  std::vector<Operation> probeOps() const override;
  std::vector<MethodSig> methods() const override;

  unsigned numCounters() const { return numKeys(); }
  unsigned modulus() const { return Modulus; }

private:
  std::optional<Value> step(Value Cur, const Operation &Op) const override;
  std::vector<Completion> results(Value Cur,
                                  const ResolvedCall &Call) const override;

  unsigned Modulus;
};

} // namespace pushpull

#endif // PUSHPULL_SPEC_COUNTERSPEC_H

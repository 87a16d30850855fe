//===- spec/KeyedSpec.h - Specs with one integer per key --------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared base of the register, counter, set, map and bank specs.
/// Their state is one integer per key, drawn from a finite value domain,
/// and every method names its key as its first argument.  The base owns
/// the state codec, key validation, the initial state, `successors`, the
/// key dispatch of `completions` and the one algebraic left-mover hint.  A
/// spec supplies only its per-key semantics:
///
///   step(Cur, Op)       the key's value after Op when the key holds Cur,
///                       or nullopt when Op is not allowed there;
///   results(Cur, Call)  the completions of Call when its key holds Cur.
///
/// The hint is Definition 4.1 on one key.  Operations on distinct keys
/// commute: that is the key-disjointness argument behind boosting's
/// abstract locks (Figure 2).  A same-key pair is decided by running both
/// orders through `step` from every value of the key's domain; each value
/// is reachable and observable (every keyed spec can read its key back),
/// so the simulation is exact.  Because `successors` runs the same `step`,
/// the hint and the semantic check cannot disagree about what an operation
/// does.  The hint allocates nothing.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SPEC_KEYEDSPEC_H
#define PUSHPULL_SPEC_KEYEDSPEC_H

#include "core/Spec.h"

namespace pushpull {

/// The state codec of the integer-vector specs: values joined by commas,
/// "" for no values.
std::vector<Value> decodeValues(const State &S);
State encodeValues(const std::vector<Value> &Values);

/// A spec whose state holds one value in [Lo, Hi] for each of NumKeys keys.
class KeyedSpec : public SequentialSpec {
public:
  std::vector<State> initialStates() const override;
  std::vector<State> successors(const State &S,
                                const Operation &Op) const override;
  std::vector<Completion> completions(const State &S,
                                      const ResolvedCall &Call)
      const override;

  /// Different objects commute; a foreign object or an invalid key gets no
  /// opinion; distinct keys commute; a same-key pair is simulated exactly.
  Tri leftMoverHint(const Operation &A, const Operation &B) const override;

  const std::string &object() const { return Object; }
  unsigned numKeys() const { return NumKeys; }
  /// Is \p C a call on this object whose first argument is a valid key?
  bool ownsKey(const ResolvedCall &C) const;

protected:
  KeyedSpec(std::string Object, unsigned NumKeys, Value Lo, Value Hi,
            Value Initial);

  bool validKey(Value K) const {
    return K >= 0 && K < static_cast<Value>(NumKeys);
  }

private:
  virtual std::optional<Value> step(Value Cur, const Operation &Op) const = 0;
  virtual std::vector<Completion> results(Value Cur,
                                          const ResolvedCall &Call) const = 0;

  std::string Object;
  unsigned NumKeys;
  Value Lo, Hi, Initial;
};

} // namespace pushpull

#endif // PUSHPULL_SPEC_KEYEDSPEC_H

//===- spec/MapSpec.h - A key/value map (boosted hashtable) -----*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sequential specification of the boosted hashtable of Figure 2
/// (backed in the paper by a ConcurrentSkipListMap).  Methods:
///
///   put(k, v)      -> previous value of k, or Absent
///   get(k)         -> value of k, or Absent
///   remove(k)      -> previous value of k, or Absent
///   containsKey(k) -> 0/1
///
/// `Absent` is the sentinel MapSpec::Absent (-1); values live in
/// {0..NumVals-1}.  Distinct keys commute (the abstract-lock discipline of
/// Figure 2); the inverse operations the boosted abort path executes are
/// exactly the two cases in Figure 2's `catch` blocks:
///
///   put(k,v) returning Absent   ~  remove(k)        ("insert" case)
///   put(k,v) returning old!=Abs ~  put(k, old)      ("update" case)
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SPEC_MAPSPEC_H
#define PUSHPULL_SPEC_MAPSPEC_H

#include "spec/KeyedSpec.h"

namespace pushpull {

/// A map from {0..NumKeys-1} to {0..NumVals-1}.
class MapSpec : public KeyedSpec {
public:
  /// Result sentinel for "no mapping".
  static constexpr Value Absent = -1;

  MapSpec(std::string Object, unsigned NumKeys, unsigned NumVals);

  std::string name() const override;
  std::vector<Operation> probeOps() const override;
  std::vector<MethodSig> methods() const override;

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

#endif // PUSHPULL_SPEC_MAPSPEC_H

//===- spec/QueueSpec.cpp - A FIFO queue (non-commutative) ------------------===//

#include "spec/QueueSpec.h"

#include "spec/KeyedSpec.h"

#include <cassert>

using namespace pushpull;

// State encoding: comma-joined front-to-back values; "" is the empty queue.

QueueSpec::QueueSpec(std::string Object, unsigned Capacity, unsigned NumVals)
    : Object(std::move(Object)), Capacity(Capacity), NumVals(NumVals) {
  assert(Capacity > 0 && NumVals > 0 && "degenerate queue");
}

std::string QueueSpec::name() const {
  return "queue(" + Object + ",cap=" + std::to_string(Capacity) +
         ",v=" + std::to_string(NumVals) + ")";
}

std::vector<State> QueueSpec::initialStates() const { return {State()}; }

std::vector<State> QueueSpec::successors(const State &S,
                                         const Operation &Op) const {
  if (Op.Call.Object != Object)
    return {};
  const ResolvedCall &C = Op.Call;
  std::vector<Value> Q = decodeValues(S);

  if (C.Method == "enq") {
    if (C.Args.size() != 1 || C.Args[0] < 0 ||
        C.Args[0] >= static_cast<Value>(NumVals) || !Op.Result)
      return {};
    bool Fits = Q.size() < Capacity;
    if (*Op.Result != (Fits ? 1 : 0))
      return {};
    if (Fits)
      Q.push_back(C.Args[0]);
    return {encodeValues(Q)};
  }
  if (C.Method == "deq") {
    if (!C.Args.empty() || !Op.Result)
      return {};
    if (Q.empty()) {
      if (*Op.Result != Empty)
        return {};
      return {S};
    }
    if (*Op.Result != Q.front())
      return {};
    Q.erase(Q.begin());
    return {encodeValues(Q)};
  }
  if (C.Method == "size") {
    if (!C.Args.empty() || !Op.Result ||
        *Op.Result != static_cast<Value>(Q.size()))
      return {};
    return {S};
  }
  return {};
}

std::vector<Completion>
QueueSpec::completions(const State &S, const ResolvedCall &Call) const {
  if (Call.Object != Object)
    return {};
  std::vector<Value> Q = decodeValues(S);
  if (Call.Method == "enq") {
    if (Call.Args.size() != 1 || Call.Args[0] < 0 ||
        Call.Args[0] >= static_cast<Value>(NumVals))
      return {};
    return {Completion{Q.size() < Capacity ? Value(1) : Value(0)}};
  }
  if (Call.Method == "deq" && Call.Args.empty())
    return {Completion{Q.empty() ? Empty : Q.front()}};
  if (Call.Method == "size" && Call.Args.empty())
    return {Completion{static_cast<Value>(Q.size())}};
  return {};
}

std::vector<Operation> QueueSpec::probeOps() const {
  std::vector<Operation> Out;
  for (unsigned V = 0; V < NumVals; ++V)
    for (Value R : {Value(0), Value(1)}) {
      Operation Enq;
      Enq.Call = {Object, "enq", {static_cast<Value>(V)}};
      Enq.Result = R;
      Out.push_back(Enq);
    }
  {
    Operation DeqEmpty;
    DeqEmpty.Call = {Object, "deq", {}};
    DeqEmpty.Result = Empty;
    Out.push_back(DeqEmpty);
  }
  for (unsigned V = 0; V < NumVals; ++V) {
    Operation Deq;
    Deq.Call = {Object, "deq", {}};
    Deq.Result = static_cast<Value>(V);
    Out.push_back(Deq);
  }
  for (unsigned N = 0; N <= Capacity; ++N) {
    Operation Size;
    Size.Call = {Object, "size", {}};
    Size.Result = static_cast<Value>(N);
    Out.push_back(Size);
  }
  return Out;
}

Tri QueueSpec::leftMoverHint(const Operation &A, const Operation &B) const {
  if (A.Call.Object != B.Call.Object)
    return Tri::Yes;
  return Tri::Unknown;
}

std::vector<MethodSig> QueueSpec::methods() const {
  return {{Object, "enq", 1, true},
          {Object, "deq", 0, true},
          {Object, "size", 0, true}};
}

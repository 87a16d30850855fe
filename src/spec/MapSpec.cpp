//===- spec/MapSpec.cpp - A key/value map (boosted hashtable) ---------------===//

#include "spec/MapSpec.h"

using namespace pushpull;

MapSpec::MapSpec(std::string Object, unsigned NumKeys, unsigned NumVals)
    : KeyedSpec(std::move(Object), NumKeys, Absent,
                static_cast<Value>(NumVals) - 1, Absent),
      NumVals(NumVals) {}

std::string MapSpec::name() const {
  return "map(" + object() + ",k=" + std::to_string(numKeys()) +
         ",v=" + std::to_string(NumVals) + ")";
}

std::optional<Value> MapSpec::step(Value Cur, const Operation &Op) const {
  const ResolvedCall &C = Op.Call;
  if (!Op.Result)
    return std::nullopt;
  Value R = *Op.Result;
  if (C.Method == "put" && C.Args.size() == 2 && validVal(C.Args[1]) &&
      R == Cur)
    return C.Args[1];
  if (C.Args.size() != 1)
    return std::nullopt;
  if (C.Method == "get" && R == Cur)
    return Cur;
  if (C.Method == "remove" && R == Cur)
    return Absent;
  if (C.Method == "containsKey" && R == (Cur == Absent ? 0 : 1))
    return Cur;
  return std::nullopt;
}

std::vector<Completion> MapSpec::results(Value Cur,
                                         const ResolvedCall &Call) const {
  if (Call.Method == "put" && Call.Args.size() == 2 && validVal(Call.Args[1]))
    return {Completion{Cur}};
  if (Call.Args.size() != 1)
    return {};
  if (Call.Method == "get" || Call.Method == "remove")
    return {Completion{Cur}};
  if (Call.Method == "containsKey")
    return {Completion{Cur == Absent ? Value(0) : Value(1)}};
  return {};
}

std::vector<Operation> MapSpec::probeOps() const {
  std::vector<Operation> Out;
  for (unsigned K = 0; K < numKeys(); ++K) {
    Value Key = static_cast<Value>(K);
    // Possible observed "previous" values: Absent or any valid value.
    std::vector<Value> Observables;
    Observables.push_back(Absent);
    for (unsigned V = 0; V < NumVals; ++V)
      Observables.push_back(static_cast<Value>(V));

    for (unsigned V = 0; V < NumVals; ++V)
      for (Value Old : Observables) {
        Operation Put;
        Put.Call = {object(), "put", {Key, static_cast<Value>(V)}};
        Put.Result = Old;
        Out.push_back(Put);
      }
    for (Value Old : Observables) {
      Operation Get;
      Get.Call = {object(), "get", {Key}};
      Get.Result = Old;
      Out.push_back(Get);

      Operation Rem;
      Rem.Call = {object(), "remove", {Key}};
      Rem.Result = Old;
      Out.push_back(Rem);
    }
    for (Value B : {Value(0), Value(1)}) {
      Operation Has;
      Has.Call = {object(), "containsKey", {Key}};
      Has.Result = B;
      Out.push_back(Has);
    }
  }
  return Out;
}

std::vector<MethodSig> MapSpec::methods() const {
  return {{object(), "put", 2, true},
          {object(), "get", 1, true},
          {object(), "remove", 1, true},
          {object(), "containsKey", 1, true}};
}

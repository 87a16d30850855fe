//===- spec/RegisterSpec.cpp - Word read/write memory ----------------------===//

#include "spec/RegisterSpec.h"

using namespace pushpull;

RegisterSpec::RegisterSpec(std::string Object, unsigned NumRegs,
                           unsigned NumVals)
    : KeyedSpec(std::move(Object), NumRegs, 0,
                static_cast<Value>(NumVals) - 1, 0),
      NumVals(NumVals) {}

std::string RegisterSpec::name() const {
  return "registers(" + object() + ",r=" + std::to_string(numRegs()) +
         ",v=" + std::to_string(NumVals) + ")";
}

std::optional<Value> RegisterSpec::step(Value Cur, const Operation &Op) const {
  const ResolvedCall &C = Op.Call;
  if (C.Method == "read" && C.Args.size() == 1 && Op.Result == Cur)
    return Cur;
  if (C.Method == "write" && C.Args.size() == 2 && validVal(C.Args[1]) &&
      (!Op.Result || *Op.Result == C.Args[1]))
    return C.Args[1];
  return std::nullopt;
}

std::vector<Completion> RegisterSpec::results(Value Cur,
                                              const ResolvedCall &Call) const {
  if (Call.Method == "read" && Call.Args.size() == 1)
    return {Completion{Cur}};
  if (Call.Method == "write" && Call.Args.size() == 2 && validVal(Call.Args[1]))
    return {Completion{Call.Args[1]}};
  return {};
}

std::vector<Operation> RegisterSpec::probeOps() const {
  std::vector<Operation> Out;
  for (unsigned R = 0; R < numRegs(); ++R) {
    for (unsigned V = 0; V < NumVals; ++V) {
      Operation Read;
      Read.Call = {object(), "read", {static_cast<Value>(R)}};
      Read.Result = static_cast<Value>(V);
      Out.push_back(Read);

      Operation Write;
      Write.Call = {object(), "write",
                    {static_cast<Value>(R), static_cast<Value>(V)}};
      Write.Result = static_cast<Value>(V);
      Out.push_back(Write);
    }
  }
  return Out;
}

std::vector<MethodSig> RegisterSpec::methods() const {
  return {{object(), "read", 1, true}, {object(), "write", 2, true}};
}

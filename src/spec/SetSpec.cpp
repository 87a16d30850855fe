//===- spec/SetSpec.cpp - A set with per-key commutativity ------------------===//

#include "spec/SetSpec.h"

using namespace pushpull;

SetSpec::SetSpec(std::string Object, unsigned Universe)
    : KeyedSpec(std::move(Object), Universe, 0, 1, 0) {}

std::string SetSpec::name() const {
  return "set(" + object() + ",u=" + std::to_string(universe()) + ")";
}

std::optional<Value> SetSpec::step(Value Cur, const Operation &Op) const {
  const ResolvedCall &C = Op.Call;
  if (C.Args.size() != 1 || !Op.Result)
    return std::nullopt;
  if (C.Method == "add" && *Op.Result == 1 - Cur)
    return 1;
  if (C.Method == "remove" && *Op.Result == Cur)
    return 0;
  if (C.Method == "contains" && *Op.Result == Cur)
    return Cur;
  return std::nullopt;
}

std::vector<Completion> SetSpec::results(Value Cur,
                                         const ResolvedCall &Call) const {
  if (Call.Args.size() != 1)
    return {};
  if (Call.Method == "add")
    return {Completion{1 - Cur}};
  if (Call.Method == "remove" || Call.Method == "contains")
    return {Completion{Cur}};
  return {};
}

std::vector<Operation> SetSpec::probeOps() const {
  std::vector<Operation> Out;
  static const char *Methods[] = {"add", "remove", "contains"};
  for (unsigned K = 0; K < universe(); ++K)
    for (const char *M : Methods)
      for (Value R : {Value(0), Value(1)}) {
        Operation Op;
        Op.Call = {object(), M, {static_cast<Value>(K)}};
        Op.Result = R;
        Out.push_back(Op);
      }
  return Out;
}

std::vector<MethodSig> SetSpec::methods() const {
  return {{object(), "add", 1, true},
          {object(), "remove", 1, true},
          {object(), "contains", 1, true}};
}

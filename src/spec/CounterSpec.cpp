//===- spec/CounterSpec.cpp - Commutative counters --------------------------===//

#include "spec/CounterSpec.h"

using namespace pushpull;

CounterSpec::CounterSpec(std::string Object, unsigned NumCounters,
                         unsigned Modulus)
    : KeyedSpec(std::move(Object), NumCounters, 0,
                static_cast<Value>(Modulus) - 1, 0),
      Modulus(Modulus) {}

std::string CounterSpec::name() const {
  return "counters(" + object() + ",n=" + std::to_string(numCounters()) +
         ",mod=" + std::to_string(Modulus) + ")";
}

std::optional<Value> CounterSpec::step(Value Cur, const Operation &Op) const {
  const ResolvedCall &C = Op.Call;
  Value Mod = static_cast<Value>(Modulus);
  if (C.Method == "read") {
    if (C.Args.size() == 1 && Op.Result == Cur)
      return Cur;
    return std::nullopt;
  }
  // Blind updates: no observable result, hence genuinely commutative.
  if (Op.Result)
    return std::nullopt;
  if ((C.Method == "inc" || C.Method == "dec") && C.Args.size() == 1)
    return (Cur + (C.Method == "inc" ? 1 : Mod - 1)) % Mod;
  if (C.Method == "add" && C.Args.size() == 2)
    return (Cur + ((C.Args[1] % Mod) + Mod) % Mod) % Mod;
  return std::nullopt;
}

std::vector<Completion> CounterSpec::results(Value Cur,
                                             const ResolvedCall &Call) const {
  if ((Call.Method == "inc" || Call.Method == "dec") && Call.Args.size() == 1)
    return {Completion{std::nullopt}};
  if (Call.Method == "add" && Call.Args.size() == 2)
    return {Completion{std::nullopt}};
  if (Call.Method == "read" && Call.Args.size() == 1)
    return {Completion{Cur}};
  return {};
}

std::vector<Operation> CounterSpec::probeOps() const {
  std::vector<Operation> Out;
  for (unsigned I = 0; I < numCounters(); ++I) {
    Value Idx = static_cast<Value>(I);
    Operation Inc;
    Inc.Call = {object(), "inc", {Idx}};
    Out.push_back(Inc);
    Operation Dec;
    Dec.Call = {object(), "dec", {Idx}};
    Out.push_back(Dec);
    for (unsigned V = 0; V < Modulus; ++V) {
      Operation Read;
      Read.Call = {object(), "read", {Idx}};
      Read.Result = static_cast<Value>(V);
      Out.push_back(Read);
    }
  }
  return Out;
}

std::vector<MethodSig> CounterSpec::methods() const {
  return {{object(), "inc", 1, false},
          {object(), "dec", 1, false},
          {object(), "add", 2, false},
          {object(), "read", 1, true}};
}

//===- spec/BankSpec.cpp - Bank accounts (mixed commutativity) --------------===//

#include "spec/BankSpec.h"

#include <algorithm>

using namespace pushpull;

BankSpec::BankSpec(std::string Object, unsigned NumAccounts, unsigned Cap,
                   unsigned InitialBalance)
    : KeyedSpec(std::move(Object), NumAccounts, 0, static_cast<Value>(Cap),
                static_cast<Value>(InitialBalance)),
      Cap(Cap) {}

std::string BankSpec::name() const {
  return "bank(" + object() + ",n=" + std::to_string(numAccounts()) +
         ",cap=" + std::to_string(Cap) + ")";
}

std::optional<Value> BankSpec::step(Value Cur, const Operation &Op) const {
  const ResolvedCall &C = Op.Call;
  Value CapV = static_cast<Value>(Cap);
  if (C.Method == "deposit") {
    if (C.Args.size() != 2 || C.Args[1] < 0 || Op.Result)
      return std::nullopt;
    // min(Cur + k, Cap), without forming a sum past the Value range.
    return C.Args[1] >= CapV - Cur ? CapV : Cur + C.Args[1];
  }
  if (C.Method == "withdraw") {
    if (C.Args.size() != 2 || C.Args[1] < 0 || !Op.Result)
      return std::nullopt;
    bool Enough = Cur >= C.Args[1];
    if (*Op.Result != (Enough ? 1 : 0))
      return std::nullopt;
    return Enough ? Cur - C.Args[1] : Cur;
  }
  if (C.Method == "balance" && C.Args.size() == 1 && Op.Result == Cur)
    return Cur;
  return std::nullopt;
}

std::vector<Completion> BankSpec::results(Value Cur,
                                          const ResolvedCall &Call) const {
  if (Call.Method == "deposit" && Call.Args.size() == 2 && Call.Args[1] >= 0)
    return {Completion{std::nullopt}};
  if (Call.Method == "withdraw" && Call.Args.size() == 2 && Call.Args[1] >= 0)
    return {Completion{Cur >= Call.Args[1] ? Value(1) : Value(0)}};
  if (Call.Method == "balance" && Call.Args.size() == 1)
    return {Completion{Cur}};
  if (Call.Method == "transfer" && Call.Args.size() == 3 &&
      validKey(Call.Args[1]) && Call.Args[2] >= 0)
    return {Completion{Cur >= Call.Args[2] ? Value(1) : Value(0)}};
  return {};
}

std::vector<State> BankSpec::successors(const State &S,
                                        const Operation &Op) const {
  const ResolvedCall &C = Op.Call;
  if (C.Method != "transfer")
    return KeyedSpec::successors(S, Op);
  if (!ownsKey(C) || C.Args.size() != 3 || !validKey(C.Args[1]) ||
      C.Args[2] < 0 || !Op.Result)
    return {};
  std::vector<Value> B = decodeValues(S);
  Value From = C.Args[0], To = C.Args[1], Amt = C.Args[2];
  bool Enough = B[From] >= Amt;
  if (*Op.Result != (Enough ? 1 : 0))
    return {};
  if (Enough && From != To) {
    B[From] -= Amt;
    B[To] = std::min(B[To] + Amt, static_cast<Value>(Cap));
  }
  return {encodeValues(B)};
}

Tri BankSpec::leftMoverHint(const Operation &A, const Operation &B) const {
  if (A.Call.Object == B.Call.Object &&
      (A.Call.Method == "transfer" || B.Call.Method == "transfer"))
    return Tri::Unknown;
  return KeyedSpec::leftMoverHint(A, B);
}

std::vector<Operation> BankSpec::probeOps() const {
  std::vector<Operation> Out;
  for (unsigned A = 0; A < numAccounts(); ++A) {
    Value Acct = static_cast<Value>(A);
    // Deposits/withdrawals of 1 and of Cap distinguish boundary states;
    // balance probes observe everything.
    for (Value Amt : {Value(1), static_cast<Value>(Cap)}) {
      Operation Dep;
      Dep.Call = {object(), "deposit", {Acct, Amt}};
      Out.push_back(Dep);
      for (Value R : {Value(0), Value(1)}) {
        Operation Wd;
        Wd.Call = {object(), "withdraw", {Acct, Amt}};
        Wd.Result = R;
        Out.push_back(Wd);
      }
    }
    for (unsigned V = 0; V <= Cap; ++V) {
      Operation Bal;
      Bal.Call = {object(), "balance", {Acct}};
      Bal.Result = static_cast<Value>(V);
      Out.push_back(Bal);
    }
  }
  return Out;
}

std::vector<MethodSig> BankSpec::methods() const {
  return {{object(), "deposit", 2, false},
          {object(), "withdraw", 2, true},
          {object(), "balance", 1, true},
          {object(), "transfer", 3, true}};
}

//===- spec/BankSpec.cpp - Bank accounts (mixed commutativity) --------------===//

#include "spec/BankSpec.h"

#include "support/Str.h"

#include <cassert>

using namespace pushpull;

BankSpec::BankSpec(std::string Object, unsigned NumAccounts, unsigned Cap,
                   unsigned InitialBalance)
    : Object(std::move(Object)), NumAccounts(NumAccounts), Cap(Cap),
      InitialBalance(InitialBalance) {
  assert(NumAccounts > 0 && Cap > 0 && "degenerate bank");
  assert(InitialBalance <= Cap && "initial balance above cap");
}

std::string BankSpec::name() const {
  return "bank(" + Object + ",n=" + std::to_string(NumAccounts) +
         ",cap=" + std::to_string(Cap) + ")";
}

std::vector<Value> BankSpec::decode(const State &S) const {
  std::vector<Value> Out;
  for (const std::string &Part : splitOn(S, ','))
    Out.push_back(std::stoll(Part));
  assert(Out.size() == NumAccounts && "malformed bank state");
  return Out;
}

State BankSpec::encode(const std::vector<Value> &B) const {
  std::vector<std::string> Parts;
  for (Value V : B)
    Parts.push_back(std::to_string(V));
  return join(Parts, ",");
}

bool BankSpec::validAccount(Value A) const {
  return A >= 0 && A < static_cast<Value>(NumAccounts);
}

bool BankSpec::touchesOneAccount(const Operation &Op) const {
  return Op.Call.Method != "transfer";
}

std::optional<Value> BankSpec::applyOneAccount(Value Balance,
                                               const Operation &Op) const {
  const ResolvedCall &C = Op.Call;
  Value CapV = static_cast<Value>(Cap);
  if (C.Method == "deposit") {
    if (C.Args.size() != 2 || C.Args[1] < 0 || Op.Result)
      return std::nullopt;
    // min(Balance + k, Cap), without forming a sum past the Value range.
    return C.Args[1] >= CapV - Balance ? CapV : Balance + C.Args[1];
  }
  if (C.Method == "withdraw") {
    if (C.Args.size() != 2 || C.Args[1] < 0 || !Op.Result)
      return std::nullopt;
    bool Enough = Balance >= C.Args[1];
    if (*Op.Result != (Enough ? 1 : 0))
      return std::nullopt;
    return Enough ? Balance - C.Args[1] : Balance;
  }
  if (C.Method == "balance") {
    if (C.Args.size() != 1 || !Op.Result || *Op.Result != Balance)
      return std::nullopt;
    return Balance;
  }
  return std::nullopt;
}

std::vector<State> BankSpec::initialStates() const {
  return {encode(std::vector<Value>(
      NumAccounts, static_cast<Value>(InitialBalance)))};
}

std::vector<State> BankSpec::successors(const State &S,
                                        const Operation &Op) const {
  if (Op.Call.Object != Object)
    return {};
  const ResolvedCall &C = Op.Call;
  if (C.Args.empty() || !validAccount(C.Args[0]))
    return {};
  std::vector<Value> B = decode(S);

  if (C.Method == "transfer") {
    if (C.Args.size() != 3 || !validAccount(C.Args[1]) || C.Args[2] < 0 ||
        !Op.Result)
      return {};
    Value From = C.Args[0], To = C.Args[1], Amt = C.Args[2];
    bool Enough = B[From] >= Amt;
    if (*Op.Result != (Enough ? 1 : 0))
      return {};
    if (Enough && From != To) {
      B[From] -= Amt;
      B[To] = std::min(B[To] + Amt, static_cast<Value>(Cap));
    }
    return {encode(B)};
  }

  auto N = applyOneAccount(B[C.Args[0]], Op);
  if (!N)
    return {};
  B[C.Args[0]] = *N;
  return {encode(B)};
}

std::vector<Completion>
BankSpec::completions(const State &S, const ResolvedCall &Call) const {
  if (Call.Object != Object)
    return {};
  if (Call.Args.empty() || !validAccount(Call.Args[0]))
    return {};
  std::vector<Value> B = decode(S);
  if (Call.Method == "deposit") {
    if (Call.Args.size() != 2 || Call.Args[1] < 0)
      return {};
    return {Completion{std::nullopt}};
  }
  if (Call.Method == "withdraw") {
    if (Call.Args.size() != 2 || Call.Args[1] < 0)
      return {};
    return {Completion{B[Call.Args[0]] >= Call.Args[1] ? Value(1)
                                                       : Value(0)}};
  }
  if (Call.Method == "balance") {
    if (Call.Args.size() != 1)
      return {};
    return {Completion{B[Call.Args[0]]}};
  }
  if (Call.Method == "transfer") {
    if (Call.Args.size() != 3 || !validAccount(Call.Args[1]) ||
        Call.Args[2] < 0)
      return {};
    return {Completion{B[Call.Args[0]] >= Call.Args[2] ? Value(1)
                                                       : Value(0)}};
  }
  return {};
}

std::vector<Operation> BankSpec::probeOps() const {
  std::vector<Operation> Out;
  for (unsigned A = 0; A < NumAccounts; ++A) {
    Value Acct = static_cast<Value>(A);
    // Deposits/withdrawals of 1 and of Cap distinguish boundary states;
    // balance probes observe everything.
    for (Value Amt : {Value(1), static_cast<Value>(Cap)}) {
      Operation Dep;
      Dep.Call = {Object, "deposit", {Acct, Amt}};
      Out.push_back(Dep);
      for (Value R : {Value(0), Value(1)}) {
        Operation Wd;
        Wd.Call = {Object, "withdraw", {Acct, Amt}};
        Wd.Result = R;
        Out.push_back(Wd);
      }
    }
    for (unsigned V = 0; V <= Cap; ++V) {
      Operation Bal;
      Bal.Call = {Object, "balance", {Acct}};
      Bal.Result = static_cast<Value>(V);
      Out.push_back(Bal);
    }
  }
  return Out;
}

Tri BankSpec::leftMoverHint(const Operation &A, const Operation &B) const {
  if (A.Call.Object != B.Call.Object)
    return Tri::Yes;
  if (A.Call.Object != Object)
    return Tri::Unknown;
  if (A.Call.Args.empty() || B.Call.Args.empty())
    return Tri::Unknown;
  // Transfers touch two accounts; leave them to the semantic engine.
  if (!touchesOneAccount(A) || !touchesOneAccount(B))
    return Tri::Unknown;
  if (A.Call.Args[0] != B.Call.Args[0])
    return Tri::Yes; // Different accounts commute.

  // Same account: exact per-account simulation over the full (reachable,
  // observable via balance) balance range.
  for (Value Bal = 0; Bal <= static_cast<Value>(Cap); ++Bal) {
    auto S1 = applyOneAccount(Bal, A);
    if (!S1)
      continue;
    auto S2 = applyOneAccount(*S1, B);
    if (!S2)
      continue; // l.A.B not allowed here: vacuous.
    auto T1 = applyOneAccount(Bal, B);
    if (!T1)
      return Tri::No;
    auto T2 = applyOneAccount(*T1, A);
    if (!T2 || *T2 != *S2)
      return Tri::No;
  }
  return Tri::Yes;
}

std::vector<MethodSig> BankSpec::methods() const {
  return {{Object, "deposit", 2, false},
          {Object, "withdraw", 2, true},
          {Object, "balance", 1, true},
          {Object, "transfer", 3, true}};
}

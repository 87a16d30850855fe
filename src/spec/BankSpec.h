//===- spec/BankSpec.h - Bank accounts (mixed commutativity) ----*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classic transactional-memory motivating example: bank accounts.
/// Its commutativity structure is richer than the set/map specs and
/// exercises the mover machinery's *conditional* cases:
///
///   deposit(a, k)       -> no result; always succeeds (blind, commutes
///                          with every deposit and any-account withdraw
///                          that still succeeds — decided semantically)
///   withdraw(a, k)      -> 1 on success, 0 on insufficient funds
///                          (success/failure is balance-dependent, so two
///                          withdraws on one account commute only in
///                          states where both still succeed)
///   balance(a)          -> current balance (observes; commutes with
///                          nothing that changes a's balance)
///   transfer(a, b, k)   -> 1 on success, 0 on insufficient funds
///
/// Balances are capped (deposits clamp at Cap) to keep the state space
/// finite for the exact coinductive checks.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SPEC_BANKSPEC_H
#define PUSHPULL_SPEC_BANKSPEC_H

#include "spec/KeyedSpec.h"

namespace pushpull {

/// \p NumAccounts accounts with balances in [0, Cap].
class BankSpec : public KeyedSpec {
public:
  BankSpec(std::string Object, unsigned NumAccounts, unsigned Cap,
           unsigned InitialBalance = 0);

  std::string name() const override;
  std::vector<Operation> probeOps() const override;
  std::vector<MethodSig> methods() const override;

  /// A transfer touches two accounts, so `step` cannot run it: its
  /// successors are computed here, and its hint stays Unknown (left to the
  /// semantic check).  Every other method is keyed on its account.
  std::vector<State> successors(const State &S,
                                const Operation &Op) const override;
  Tri leftMoverHint(const Operation &A, const Operation &B) const override;

  unsigned numAccounts() const { return numKeys(); }
  unsigned cap() const { return Cap; }

private:
  std::optional<Value> step(Value Cur, const Operation &Op) const override;
  std::vector<Completion> results(Value Cur,
                                  const ResolvedCall &Call) const override;

  unsigned Cap;
};

} // namespace pushpull

#endif // PUSHPULL_SPEC_BANKSPEC_H

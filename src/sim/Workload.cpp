//===- sim/Workload.cpp - Workload generators -------------------------------===//

#include "sim/Workload.h"

#include <algorithm>

using namespace pushpull;

namespace {

/// Shared skeleton: build Threads x TxPerThread transactions, each a
/// straight-line sequence of OpsPerTx calls produced by MakeOp(Rng).
template <typename MakeOpFn>
ThreadPrograms generate(const WorkloadConfig &C, MakeOpFn &&MakeOp) {
  Rng Root(C.Seed);
  ThreadPrograms Out;
  for (unsigned T = 0; T < C.Threads; ++T) {
    Rng R = Root.split();
    std::vector<CodePtr> Txs;
    for (unsigned X = 0; X < C.TxPerThread; ++X) {
      std::vector<CodePtr> Body;
      for (unsigned O = 0; O < C.OpsPerTx; ++O)
        Body.push_back(MakeOp(R, T, X, O));
      Txs.push_back(tx(seqAll(std::move(Body))));
    }
    Out.push_back(std::move(Txs));
  }
  return Out;
}

Value pickKey(Rng &R, const WorkloadConfig &C, unsigned DomainSize) {
  unsigned Range = std::min(C.KeyRange, DomainSize);
  if (Range == 0)
    Range = DomainSize;
  return static_cast<Value>(R.zipf(Range, C.ZipfTheta));
}

std::string resultVar(unsigned X, unsigned O) {
  return "r" + std::to_string(X) + "_" + std::to_string(O);
}

} // namespace

ThreadPrograms pushpull::genMapWorkload(const MapSpec &Spec,
                                        const WorkloadConfig &C) {
  return generate(C, [&](Rng &R, unsigned, unsigned X, unsigned O) {
    Value K = pickKey(R, C, Spec.numKeys());
    if (R.chance(C.ReadPct, 100))
      return call(Spec.object(), "get", {K}, resultVar(X, O));
    if (R.chance(1, 4))
      return call(Spec.object(), "remove", {K}, resultVar(X, O));
    Value V = R.range(0, Spec.numVals() - 1);
    return call(Spec.object(), "put", {K, V}, resultVar(X, O));
  });
}

ThreadPrograms pushpull::genRegisterWorkload(const RegisterSpec &Spec,
                                             const WorkloadConfig &C) {
  return generate(C, [&](Rng &R, unsigned, unsigned X, unsigned O) {
    Value Reg = pickKey(R, C, Spec.numRegs());
    if (R.chance(C.ReadPct, 100))
      return call(Spec.object(), "read", {Reg}, resultVar(X, O));
    Value V = R.range(0, Spec.numVals() - 1);
    return call(Spec.object(), "write", {Reg, V});
  });
}

ThreadPrograms pushpull::genSetWorkload(const SetSpec &Spec,
                                        const WorkloadConfig &C) {
  return generate(C, [&](Rng &R, unsigned, unsigned X, unsigned O) {
    Value K = pickKey(R, C, Spec.universe());
    if (R.chance(C.ReadPct, 100))
      return call(Spec.object(), "contains", {K}, resultVar(X, O));
    if (R.chance(1, 2))
      return call(Spec.object(), "add", {K}, resultVar(X, O));
    return call(Spec.object(), "remove", {K}, resultVar(X, O));
  });
}

ThreadPrograms pushpull::genCounterWorkload(const CounterSpec &Spec,
                                            const WorkloadConfig &C) {
  return generate(C, [&](Rng &R, unsigned, unsigned X, unsigned O) {
    Value I = pickKey(R, C, Spec.numCounters());
    if (R.chance(C.ReadPct, 100))
      return call(Spec.object(), "read", {I}, resultVar(X, O));
    if (R.chance(1, 2))
      return call(Spec.object(), "inc", {I});
    return call(Spec.object(), "dec", {I});
  });
}

ThreadPrograms pushpull::genBankWorkload(const BankSpec &Spec,
                                         const WorkloadConfig &C) {
  return generate(C, [&](Rng &R, unsigned, unsigned X, unsigned O) {
    Value A = pickKey(R, C, Spec.numAccounts());
    if (R.chance(C.ReadPct, 100))
      return call(Spec.object(), "balance", {A}, resultVar(X, O));
    Value K = R.range(1, std::max(1u, Spec.cap() / 2));
    if (Spec.numAccounts() > 1 && R.chance(1, 4)) {
      Value B = pickKey(R, C, Spec.numAccounts());
      if (B == A)
        B = (B + 1) % Spec.numAccounts();
      return call(Spec.object(), "transfer", {A, B, K}, resultVar(X, O));
    }
    if (R.chance(1, 2))
      return call(Spec.object(), "deposit", {A, K});
    return call(Spec.object(), "withdraw", {A, K}, resultVar(X, O));
  });
}

ThreadPrograms pushpull::genQueueWorkload(const QueueSpec &Spec,
                                          const WorkloadConfig &C) {
  return generate(C, [&](Rng &R, unsigned, unsigned X, unsigned O) {
    if (R.chance(C.ReadPct, 100))
      return call(Spec.object(), "deq", {}, resultVar(X, O));
    Value V = R.range(0, 1);
    return call(Spec.object(), "enq", {V}, resultVar(X, O));
  });
}

ThreadPrograms pushpull::genWorkload(const SequentialSpec *Spec,
                                     const WorkloadConfig &C) {
  if (const auto *S = dynamic_cast<const MapSpec *>(Spec))
    return genMapWorkload(*S, C);
  if (const auto *S = dynamic_cast<const RegisterSpec *>(Spec))
    return genRegisterWorkload(*S, C);
  if (const auto *S = dynamic_cast<const SetSpec *>(Spec))
    return genSetWorkload(*S, C);
  if (const auto *S = dynamic_cast<const CounterSpec *>(Spec))
    return genCounterWorkload(*S, C);
  if (const auto *S = dynamic_cast<const QueueSpec *>(Spec))
    return genQueueWorkload(*S, C);
  if (const auto *S = dynamic_cast<const BankSpec *>(Spec))
    return genBankWorkload(*S, C);
  return {};
}

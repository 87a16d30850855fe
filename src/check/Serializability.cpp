//===- check/Serializability.cpp - Theorem 5.17 as an oracle ---------------===//

#include "check/Serializability.h"

#include <algorithm>

using namespace pushpull;

SerializabilityChecker::SerializabilityChecker(const SequentialSpec &Spec,
                                               AtomicLimits Limits,
                                               PrecongruenceLimits PreLimits)
    : Spec(Spec), Limits(Limits), Pre(Spec, PreLimits) {}

SerializabilityVerdict SerializabilityChecker::checkOrder(
    const std::vector<CommittedTx> &Txs,
    const std::vector<Operation> &CommittedLog) {
  SerializabilityVerdict Out;

  std::vector<AtomicTx> Serial;
  Serial.reserve(Txs.size());
  for (const CommittedTx &T : Txs)
    Serial.push_back({T.Body, T.Sigma, T.FinalSigma});

  // |G|_gCmt =< l depends on l only through [[l]] (Definition 3.1), so the
  // committed log is denoted once and the atomic runs are searched on
  // their denotations.
  StateSetId Target = Spec.denoteId(CommittedLog);
  AtomicMachine Atomic(Spec, Limits);
  bool SawUnknown = false;
  bool Found =
      Atomic.searchSerialDenotations(Serial, [&](StateSetId Final) {
        ++Out.OutcomesTried;
        Tri V = Pre.check(Target, Final);
        if (V == Tri::Unknown)
          SawUnknown = true;
        return V == Tri::Yes;
      });

  if (Found) {
    Out.Serializable = Tri::Yes;
    for (const CommittedTx &T : Txs)
      Out.WitnessOrder.push_back(T.Tid);
    return Out;
  }
  if (SawUnknown || Atomic.truncated()) {
    Out.Serializable = Tri::Unknown;
    Out.Detail = "search exhausted its resource bounds";
    return Out;
  }
  Out.Serializable = Tri::No;
  Out.Detail = "no atomic outcome in this order matches the committed log";
  return Out;
}

SerializabilityVerdict
SerializabilityChecker::checkCommitOrder(const PushPullMachine &M) {
  std::vector<CommittedTx> Txs = M.committed();
  std::sort(Txs.begin(), Txs.end(),
            [](const CommittedTx &A, const CommittedTx &B) {
              return A.CommitSeq < B.CommitSeq;
            });
  return checkOrder(Txs, M.committedLog());
}

SerializabilityVerdict
SerializabilityChecker::checkAnyOrder(const PushPullMachine &M,
                                      size_t MaxTxsForPermutations) {
  std::vector<CommittedTx> Txs = M.committed();
  if (Txs.size() > MaxTxsForPermutations) {
    SerializabilityVerdict Out;
    Out.Serializable = Tri::Unknown;
    Out.Detail = "too many transactions for permutation search";
    return Out;
  }

  std::vector<size_t> Idx(Txs.size());
  for (size_t I = 0; I < Idx.size(); ++I)
    Idx[I] = I;

  std::vector<Operation> CommittedLog = M.committedLog();
  SerializabilityVerdict Last;
  bool SawUnknown = false;
  do {
    std::vector<CommittedTx> Order;
    Order.reserve(Idx.size());
    for (size_t I : Idx)
      Order.push_back(Txs[I]);
    Last = checkOrder(Order, CommittedLog);
    if (Last.Serializable == Tri::Yes)
      return Last;
    if (Last.Serializable == Tri::Unknown)
      SawUnknown = true;
  } while (std::next_permutation(Idx.begin(), Idx.end()));

  SerializabilityVerdict Out;
  Out.Serializable = SawUnknown ? Tri::Unknown : Tri::No;
  Out.Detail = SawUnknown ? "some orders exhausted resource bounds"
                          : "no serial order produces the committed log";
  return Out;
}

//===- sim/Workload.h - Workload generators ---------------------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic (seeded) generators of thread programs for the Section 6
/// experiments: per-spec transaction mixes with configurable size, key
/// skew (Zipf-like, the contention knob of E10), and read ratio.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SIM_WORKLOAD_H
#define PUSHPULL_SIM_WORKLOAD_H

#include "lang/Ast.h"
#include "spec/BankSpec.h"
#include "spec/CounterSpec.h"
#include "spec/MapSpec.h"
#include "spec/QueueSpec.h"
#include "spec/RegisterSpec.h"
#include "spec/SetSpec.h"
#include "support/Rng.h"

#include <vector>

namespace pushpull {

/// Knobs shared by all generators.
struct WorkloadConfig {
  unsigned Threads = 4;
  unsigned TxPerThread = 4;
  unsigned OpsPerTx = 3;
  /// Keys/registers drawn from [0, KeyRange) — clamped to the spec's
  /// domain by each generator.
  unsigned KeyRange = 8;
  /// Zipf skew in hundredths (0 = uniform, 100 = theta 1.0).  Higher skew
  /// means more contention on hot keys.
  unsigned ZipfTheta = 0;
  /// Percentage of read-like operations.
  unsigned ReadPct = 50;
  uint64_t Seed = 1;
};

/// Per-thread transaction programs: Programs[t] is thread t's transaction
/// sequence.
using ThreadPrograms = std::vector<std::vector<CodePtr>>;

/// put/get/remove mixes over the map (the Figure 2 hashtable workload).
ThreadPrograms genMapWorkload(const MapSpec &Spec, const WorkloadConfig &C);

/// read/write mixes over registers (the Section 6.2 word-STM workload).
ThreadPrograms genRegisterWorkload(const RegisterSpec &Spec,
                                   const WorkloadConfig &C);

/// add/remove/contains mixes over the set (boosted skiplist workload).
ThreadPrograms genSetWorkload(const SetSpec &Spec, const WorkloadConfig &C);

/// inc/dec/read mixes over counters.
ThreadPrograms genCounterWorkload(const CounterSpec &Spec,
                                  const WorkloadConfig &C);

/// enq/deq mixes over the queue (the non-commutative stressor).
ThreadPrograms genQueueWorkload(const QueueSpec &Spec,
                                const WorkloadConfig &C);

/// deposit/withdraw/balance/transfer mixes over bank accounts (the
/// conditional-commutativity stressor; ReadPct governs balance reads).
ThreadPrograms genBankWorkload(const BankSpec &Spec,
                               const WorkloadConfig &C);

/// The mix above for whichever primitive spec \p Spec is.  Empty when
/// \p Spec is null or not one of the six (a composite, say).
ThreadPrograms genWorkload(const SequentialSpec *Spec,
                           const WorkloadConfig &C);

} // namespace pushpull

#endif // PUSHPULL_SIM_WORKLOAD_H

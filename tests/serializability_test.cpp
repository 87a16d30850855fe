//===- tests/serializability_test.cpp - Theorem 5.17 oracle -----------------===//

#include "check/Serializability.h"

#include "TestUtil.h"
#include "fuzz/DiffRunner.h"
#include "fuzz/Generator.h"
#include "lang/Parser.h"
#include "sim/Scheduler.h"
#include "spec/RegisterSpec.h"
#include "spec/SetSpec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace pushpull;
using testutil::mkOp;

namespace {

/// Drive a two-thread interleaved run by hand and return the machine.
PushPullMachine interleavedSetRun(const SetSpec &Spec, MoverChecker &Movers) {
  PushPullMachine M(Spec, Movers);
  TxId T0 = M.addThread({parseOrDie("tx { a := set.add(0); b := set.add(1) }")});
  TxId T1 = M.addThread({parseOrDie("tx { c := set.add(2); d := set.remove(0) }")});
  EXPECT_TRUE(M.beginTx(T0));
  EXPECT_TRUE(M.beginTx(T1));
  EXPECT_TRUE(M.app(T0, 0, 0).Applied);
  EXPECT_TRUE(M.push(T0, 0).Applied);
  EXPECT_TRUE(M.app(T1, 0, 0).Applied);
  EXPECT_TRUE(M.push(T1, 0).Applied);
  EXPECT_TRUE(M.app(T0, 0, 0).Applied);
  EXPECT_TRUE(M.push(T0, 1).Applied);
  EXPECT_TRUE(M.commit(T0).Applied);
  // T1 must see T0's committed remove(0) effect... pull it to stay
  // consistent before removing 0 (the add(0) was committed by T0).
  for (size_t GI = 0; GI < M.global().size(); ++GI)
    if (M.global()[GI].Kind == GlobalKind::Committed &&
        !M.thread(T1).L.contains(M.global()[GI].Op.Id))
      M.pull(T1, GI);
  EXPECT_TRUE(M.app(T1, 0, 0).Applied);
  EXPECT_TRUE(M.push(T1, M.thread(T1).L.size() - 1).Applied);
  EXPECT_TRUE(M.commit(T1).Applied);
  return M;
}

/// A serializable history whose log-level search exhausts its budget
/// before any outcome reaches the precongruence check: the first choice
/// of transaction 0 dooms the final read, and the 2^16 serial runs of the
/// middle transactions under it all end in distinct logs.
struct WideHistory {
  RegisterSpec Spec{"mem", 2, 2};
  std::vector<CommittedTx> Txs;
  std::vector<Operation> CommittedLog;

  WideHistory() {
    OpId Id = 0;
    auto Add = [&](const char *Body, Stack Final, Operation Op) {
      CommittedTx T;
      T.Tid = static_cast<TxId>(Txs.size());
      T.Body = parseOrDie(Body);
      T.FinalSigma = std::move(Final);
      T.CommitSeq = Txs.size();
      Txs.push_back(std::move(T));
      CommittedLog.push_back(std::move(Op));
    };
    Add("mem.write(0, 0) + mem.write(0, 1)", Stack(),
        mkOp(++Id, "mem", "write", {0, 1}, 1));
    for (int I = 0; I < 16; ++I)
      Add("mem.write(1, 0) + mem.write(1, 1)", Stack(),
          mkOp(++Id, "mem", "write", {1, 1}, 1));
    Add("v := mem.read(0)", Stack().bind("v", 1),
        mkOp(++Id, "mem", "read", {0}, 1));
  }
};

/// The commit-order verdict computed the log-level way: enumerate whole
/// atomic logs with AtomicMachine::searchSerial and ask checkLogs about
/// each.  Sets \p Truncated when the enumeration hit its budget.
Tri referenceCommitOrder(const SequentialSpec &Spec, const PushPullMachine &M,
                         const AtomicLimits &Limits, bool &Truncated) {
  std::vector<CommittedTx> Txs = M.committed();
  std::sort(Txs.begin(), Txs.end(),
            [](const CommittedTx &A, const CommittedTx &B) {
              return A.CommitSeq < B.CommitSeq;
            });
  std::vector<AtomicTx> Serial;
  for (const CommittedTx &T : Txs)
    Serial.push_back({T.Body, T.Sigma, T.FinalSigma});
  std::vector<Operation> CommittedLog = M.committedLog();
  PrecongruenceChecker Pre(Spec);
  AtomicMachine Atomic(Spec, Limits);
  bool SawUnknown = false;
  bool Found = Atomic.searchSerial(Serial, {}, [&](const AtomicOutcome &O) {
    Tri V = Pre.checkLogs(CommittedLog, O.Log);
    SawUnknown = SawUnknown || V == Tri::Unknown;
    return V == Tri::Yes;
  });
  Truncated = Atomic.truncated();
  if (Found)
    return Tri::Yes;
  return SawUnknown ? Tri::Unknown : Tri::No;
}

} // namespace

TEST(Oracle, EmptyRunSerializable) {
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  SerializabilityChecker Oracle(Spec);
  EXPECT_EQ(Oracle.checkCommitOrder(M).Serializable, Tri::Yes);
}

TEST(Oracle, InterleavedCriteriaRunIsSerializable) {
  SetSpec Spec("set", 3);
  MoverChecker Movers(Spec);
  PushPullMachine M = interleavedSetRun(Spec, Movers);
  SerializabilityChecker Oracle(Spec);
  SerializabilityVerdict V = Oracle.checkCommitOrder(M);
  EXPECT_EQ(V.Serializable, Tri::Yes) << V.Detail;
  ASSERT_EQ(V.WitnessOrder.size(), 2u);
  EXPECT_EQ(V.WitnessOrder[0], 0u) << "commit order is the witness";
}

TEST(Oracle, NonSerializableCommittedLogRefused) {
  // Bypass the criteria (Trusting mode) to manufacture the classic
  // write-skew-like anomaly: T0 reads 0, T1 writes 1 and commits, then T0
  // publishes its stale read and commits.  No serial order of
  // { read(0)=0 } and { write(0,1) } yields the committed log
  // [read=0 ... write=1] *with T0 serialized after T1*... in fact commit
  // order (T1 then T0) requires read(0)=1.  Any-order search still finds
  // T0-before-T1, so use a shape impossible in every order: T0 reads 0
  // and also reads 1 around T1's committed write.
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  MachineConfig MC;
  MC.Level = ValidationLevel::Trusting;
  PushPullMachine M(Spec, Movers, MC);
  TxId T0 =
      M.addThread({parseOrDie("tx { v := mem.read(0); w := mem.read(0) }")});
  TxId T1 = M.addThread({parseOrDie("tx { mem.write(0, 1) }")});
  ASSERT_TRUE(M.beginTx(T0));
  ASSERT_TRUE(M.beginTx(T1));
  // T0 reads 0 (initial), publishes.
  ASSERT_TRUE(M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(M.push(T0, 0).Applied);
  // T1 writes 1, publishes, commits.
  ASSERT_TRUE(M.app(T1, 0, 0).Applied);
  ASSERT_TRUE(M.push(T1, 0).Applied);
  ASSERT_TRUE(M.commit(T1).Applied);
  // T0 now *sees* the write (pull) and reads 1 — a non-repeatable read.
  ASSERT_TRUE(M.pull(T0, M.global().size() - 1).Applied);
  ASSERT_TRUE(M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(M.push(T0, M.thread(T0).L.size() - 1).Applied);
  ASSERT_TRUE(M.commit(T0).Applied);

  SerializabilityChecker Oracle(Spec);
  EXPECT_EQ(Oracle.checkCommitOrder(M).Serializable, Tri::No);
  EXPECT_EQ(Oracle.checkAnyOrder(M).Serializable, Tri::No)
      << "no serial order explains reading both 0 and 1";
}

TEST(Oracle, AnyOrderFindsNonCommitOrderWitness) {
  // T0 commits *after* T1 but must serialize before it: T0 reads 0
  // staleness-free only before T1's write.  With criteria enforced this
  // cannot happen (push would be rejected), so build it in Trusting mode
  // with the read pushed before the write exists — then commit T1 first.
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  MachineConfig MC;
  MC.Level = ValidationLevel::Trusting;
  PushPullMachine M(Spec, Movers, MC);
  TxId T0 = M.addThread({parseOrDie("tx { v := mem.read(0) }")});
  TxId T1 = M.addThread({parseOrDie("tx { mem.write(0, 1) }")});
  ASSERT_TRUE(M.beginTx(T0));
  ASSERT_TRUE(M.beginTx(T1));
  ASSERT_TRUE(M.app(T0, 0, 0).Applied); // read(0)=0
  ASSERT_TRUE(M.push(T0, 0).Applied);
  ASSERT_TRUE(M.app(T1, 0, 0).Applied);
  ASSERT_TRUE(M.push(T1, 0).Applied);
  ASSERT_TRUE(M.commit(T1).Applied); // T1 commits first...
  ASSERT_TRUE(M.commit(T0).Applied); // ...then T0.

  SerializabilityChecker Oracle(Spec);
  // Commit order (T1; T0) cannot produce read(0)=0 after write(0,1) at
  // the *end* of the atomic log, but the committed log is
  // [read=0, write=1], which T0-then-T1 produces exactly.
  EXPECT_EQ(Oracle.checkCommitOrder(M).Serializable, Tri::No);
  SerializabilityVerdict V = Oracle.checkAnyOrder(M);
  EXPECT_EQ(V.Serializable, Tri::Yes);
  ASSERT_EQ(V.WitnessOrder.size(), 2u);
  EXPECT_EQ(V.WitnessOrder[0], T0);
}

TEST(Oracle, PrecongruenceNotEqualityOfLogs) {
  // The committed log need not equal the atomic log op-for-op — ids and
  // stacks differ; precongruence over denotations is what matters.
  SetSpec Spec("set", 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  TxId T = M.addThread({parseOrDie("tx { a := set.add(1) }")});
  ASSERT_TRUE(M.beginTx(T));
  ASSERT_TRUE(M.app(T, 0, 0).Applied);
  ASSERT_TRUE(M.push(T, 0).Applied);
  ASSERT_TRUE(M.commit(T).Applied);
  SerializabilityChecker Oracle(Spec);
  EXPECT_EQ(Oracle.checkCommitOrder(M).Serializable, Tri::Yes);
}

TEST(Oracle, TooManyTxsForPermutationSearch) {
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  for (int I = 0; I < 9; ++I) {
    TxId T = M.addThread({parseOrDie("tx { skip }")});
    ASSERT_TRUE(M.beginTx(T));
    ASSERT_TRUE(M.commit(T).Applied);
  }
  SerializabilityChecker Oracle(Spec);
  EXPECT_EQ(Oracle.checkAnyOrder(M, 7).Serializable, Tri::Unknown);
  EXPECT_EQ(Oracle.checkCommitOrder(M).Serializable, Tri::Yes);
}

TEST(Oracle, DenotationSearchDecidesWhatTheLogSearchCannot) {
  WideHistory H;
  SerializabilityChecker Oracle(H.Spec);
  SerializabilityVerdict V = Oracle.checkOrder(H.Txs, H.CommittedLog);
  EXPECT_EQ(V.Serializable, Tri::Yes) << V.Detail;
  EXPECT_EQ(V.WitnessOrder.size(), H.Txs.size());
  // Every final denotation the search can reach: which value register 1
  // ends with.
  EXPECT_LE(V.OutcomesTried, 2u);
}

TEST(Oracle, TruncatedSearchIsUnknownNeverNo) {
  WideHistory H;
  AtomicLimits Tight;
  Tight.MaxOutcomes = 8;
  SerializabilityChecker Oracle(H.Spec, Tight);
  SerializabilityVerdict V = Oracle.checkOrder(H.Txs, H.CommittedLog);
  EXPECT_EQ(V.Serializable, Tri::Unknown);
  EXPECT_EQ(V.Detail, "search exhausted its resource bounds");
}

TEST(Oracle, DenotationSearchAgreesWithLogLevelReference) {
  // Seeded generator cases over every (engine, spec kind) pair, run the
  // way DiffRunner runs them, clean and with a planted fault so No
  // verdicts occur.  checkCommitOrder must give the verdict the
  // log-level reference gives.  A reference that hit its budget decides
  // only a Yes (it found a witness); its other cases are skipped.
  const DiffConfig Defaults;
  GeneratorConfig GC;
  GC.Seed = 20261017;
  GC.MaxTxPerThread = 3;
  GC.MaxOpsPerTx = 4;
  Generator Gen(GC);
  std::vector<FuzzCase> Cases;
  for (int I = 0; I < 210; ++I)
    Cases.push_back(Gen.next());

  std::set<std::pair<std::string, std::string>> Covered;
  unsigned Compared = 0, Skipped = 0, Yes = 0, No = 0;
  for (const char *Fault : {"", "PUSH criterion (ii)"}) {
    for (size_t I = 0; I < Cases.size(); ++I) {
      std::string Error;
      BuiltCase B = buildCase(Cases[I], Error);
      ASSERT_TRUE(B.Spec) << Error;
      MoverChecker Movers(*B.Spec, Defaults.Movers, Defaults.Pre);
      MachineConfig MC;
      MC.DisabledCriterion = Fault;
      PushPullMachine M(*B.Spec, Movers, MC);
      for (const auto &P : B.Threads)
        M.addThread(P);
      std::unique_ptr<TMEngine> Engine =
          makeEngine(B.Engine, B.EngineOpts, M, Error);
      ASSERT_TRUE(Engine) << Error;
      SchedulerConfig SC;
      SC.Policy = B.Policy;
      SC.Seed = B.ScheduleSeed;
      // A fault can make a run livelock; a shorter step budget still
      // leaves a committed prefix to adjudicate.
      SC.MaxSteps = std::min<uint64_t>(B.MaxSteps, 1000);
      SC.ChangePoints = B.ChangePoints;
      Scheduler(SC).run(*Engine);

      bool Truncated = false;
      Tri Want =
          referenceCommitOrder(*B.Spec, M, Defaults.Atomic, Truncated);
      if (Truncated && Want != Tri::Yes) {
        ++Skipped;
        continue;
      }
      SerializabilityChecker Oracle(*B.Spec, Defaults.Atomic, Defaults.Pre);
      SerializabilityVerdict Got = Oracle.checkCommitOrder(M);
      EXPECT_EQ(Got.Serializable, Want)
          << "case " << I << " (" << B.Engine << ", "
          << Cases[I].Specs.front().Kind << ", fault '" << Fault
          << "'): " << Got.Detail << "\n"
          << Cases[I].toScenarioText();
      ++Compared;
      Yes += Want == Tri::Yes;
      No += Want == Tri::No;
      Covered.insert({B.Engine, Cases[I].Specs.size() > 1
                                    ? "composite"
                                    : Cases[I].Specs.front().Kind});
    }
  }
  EXPECT_GE(Compared, 400u) << Skipped << " skipped";
  EXPECT_GT(Yes, 0u);
  EXPECT_GT(No, 0u) << "the planted fault must produce No verdicts";
  // Six primitive kinds plus the two-part composite.
  EXPECT_EQ(Covered.size(),
            allEngineNames().size() * (allSpecKinds().size() + 1));
}

//===- tests/machine_test.cpp - The seven rules of Figure 5 -----------------===//
//
// For every rule: a positive case and a negative case per criterion, with
// the machine naming the violated criterion; plus the reversibility laws
// (UNAPP o APP, UNPUSH o PUSH, UNPULL o PULL are identities).
//
//===----------------------------------------------------------------------===//

#include "core/Machine.h"

#include "check/Serializability.h"

#include "TestUtil.h"
#include "lang/Parser.h"
#include "spec/CompositeSpec.h"
#include "spec/CounterSpec.h"
#include "lang/Printer.h"
#include "spec/RegisterSpec.h"
#include "spec/SetSpec.h"

#include <gtest/gtest.h>

using namespace pushpull;

namespace {

/// Fixture bundling a spec, movers, and a machine.
struct RegisterRig {
  RegisterSpec Spec{"mem", 2, 3};
  MoverChecker Movers{Spec};
  PushPullMachine M{Spec, Movers};

  TxId addThread(const std::string &Tx) {
    TxId T = M.addThread({parseOrDie(Tx)});
    EXPECT_TRUE(M.beginTx(T));
    return T;
  }
};

struct SetRig {
  SetSpec Spec{"set", 4};
  MoverChecker Movers{Spec};
  PushPullMachine M{Spec, Movers};

  TxId addThread(const std::string &Tx) {
    TxId T = M.addThread({parseOrDie(Tx)});
    EXPECT_TRUE(M.beginTx(T));
    return T;
  }
};

/// Does the result contain a failing criterion with this name?
bool failedOn(const RuleResult &R, const std::string &Name) {
  for (const CriterionReport &C : R.Criteria)
    if (C.Name == Name && !C.holds())
      return true;
  return false;
}

} // namespace

// --- APP -------------------------------------------------------------------

TEST(App, AppliesAndBindsResult) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 2); v := mem.read(0) }");
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  const ThreadState &Th = Rig.M.thread(T);
  EXPECT_EQ(Th.Sigma.getOrDie("v"), 2);
  ASSERT_EQ(Th.L.size(), 2u);
  EXPECT_EQ(Th.L[0].Kind, LocalKind::NotPushed);
  EXPECT_EQ(Th.L[1].Op.Result, Value(2));
  EXPECT_TRUE(fin(Th.Code));
}

TEST(App, RecordsPreStackAndPreCode) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { v := mem.read(0); mem.write(1, v) }");
  CodePtr Before = Rig.M.thread(T).Code;
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  const LocalEntry &E = Rig.M.thread(T).L[0];
  EXPECT_TRUE(E.Op.Pre.empty());
  EXPECT_EQ(E.Op.Post.getOrDie("v"), 0);
  EXPECT_TRUE(codeEquals(E.SavedCode, Before));
}

TEST(App, FreshIdsMonotone) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1); mem.write(0, 2) }");
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  const LocalLog &L = Rig.M.thread(T).L;
  EXPECT_LT(L[0].Op.Id, L[1].Op.Id);
}

TEST(App, CriterionIIRejectsImpossibleCompletion) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { v := mem.read(0) }");
  RuleResult R = Rig.M.app(T, 0, 5); // No such completion.
  EXPECT_FALSE(R.Applied);
  EXPECT_TRUE(failedOn(R, "APP criterion (ii)"));
}

TEST(App, RejectsOutOfRangeStepChoice) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1) }");
  EXPECT_FALSE(Rig.M.app(T, 3, 0).Applied);
}

TEST(App, ChoicesEnumerateNondeterminism) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1) + mem.write(0, 2) }");
  EXPECT_EQ(Rig.M.appChoices(T).size(), 2u);
}

TEST(App, LocalViewSeesOwnEffects) {
  SetRig Rig;
  TxId T = Rig.addThread("tx { a := set.add(1); b := set.add(1) }");
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  const ThreadState &Th = Rig.M.thread(T);
  EXPECT_EQ(Th.Sigma.getOrDie("a"), 1) << "first add inserts";
  EXPECT_EQ(Th.Sigma.getOrDie("b"), 0) << "second add sees the first";
}

// --- UNAPP -----------------------------------------------------------------

TEST(UnApp, InverseOfApp) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { v := mem.read(0); mem.write(0, 1) }");
  CodePtr Code0 = Rig.M.thread(T).Code;
  Stack Sigma0 = Rig.M.thread(T).Sigma;
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.unapp(T).Applied);
  EXPECT_TRUE(codeEquals(Rig.M.thread(T).Code, Code0));
  EXPECT_EQ(Rig.M.thread(T).Sigma, Sigma0);
  EXPECT_TRUE(Rig.M.thread(T).L.empty());
}

TEST(UnApp, RequiresNonEmptyLog) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1) }");
  EXPECT_FALSE(Rig.M.unapp(T).Applied);
}

TEST(UnApp, RefusesPushedTail) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1) }");
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T, 0).Applied);
  EXPECT_FALSE(Rig.M.unapp(T).Applied) << "pshd entries cannot be unapped";
}

// --- PUSH ------------------------------------------------------------------

TEST(Push, PublishesToGlobalLog) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1) }");
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  RuleResult R = Rig.M.push(T, 0);
  ASSERT_TRUE(R.Applied);
  ASSERT_EQ(Rig.M.global().size(), 1u);
  EXPECT_EQ(Rig.M.global()[0].Kind, GlobalKind::Uncommitted);
  EXPECT_EQ(Rig.M.global()[0].Owner, T);
  EXPECT_EQ(Rig.M.thread(T).L[0].Kind, LocalKind::Pushed);
}

TEST(Push, CriterionIIRejectsConflictWithOtherUncommitted) {
  RegisterRig Rig;
  TxId T0 = Rig.addThread("tx { v := mem.read(0) }");
  TxId T1 = Rig.addThread("tx { mem.write(0, 1) }");
  ASSERT_TRUE(Rig.M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T0, 0).Applied); // Uncommitted read of 0 in G.
  ASSERT_TRUE(Rig.M.app(T1, 0, 0).Applied);
  RuleResult R = Rig.M.push(T1, 0);
  EXPECT_FALSE(R.Applied) << "read=0 cannot move right of write(0,1)";
  EXPECT_TRUE(failedOn(R, "PUSH criterion (ii)"));
}

TEST(Push, CriterionIIIRejectsStaleRead) {
  RegisterRig Rig;
  TxId T0 = Rig.addThread("tx { v := mem.read(0) }");
  TxId T1 = Rig.addThread("tx { mem.write(0, 1) }");
  // T0 reads 0 locally (snapshot of the empty log).
  ASSERT_TRUE(Rig.M.app(T0, 0, 0).Applied);
  // T1 writes and commits.
  ASSERT_TRUE(Rig.M.app(T1, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T1, 0).Applied);
  ASSERT_TRUE(Rig.M.commit(T1).Applied);
  // T0's read=0 is now stale: G.read(0)=0 is not allowed.
  RuleResult R = Rig.M.push(T0, 0);
  EXPECT_FALSE(R.Applied);
  EXPECT_TRUE(failedOn(R, "PUSH criterion (iii)"));
}

TEST(Push, CriterionIPermitsOutOfOrderCommutative) {
  // Two blind-commutative ops (writes to different registers) pushed in
  // reverse APP order: criterion (i) checks the later-applied op moves
  // left over the earlier unpushed one — satisfied across registers.
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1); mem.write(1, 2) }");
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  RuleResult R = Rig.M.push(T, 1); // Push the second op first.
  EXPECT_TRUE(R.Applied);
  EXPECT_TRUE(Rig.M.push(T, 0).Applied);
}

TEST(Push, CriterionIRejectsOutOfOrderConflicting) {
  // write(0,1) then write(0,2): pushing the second write first would
  // publish it as if it preceded the first — but write(0,2) cannot move
  // left of write(0,1) (the final values differ).  Note criterion (iii)
  // cannot catch this: blind writes are always allowed at the end of G.
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1); mem.write(0, 2) }");
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  RuleResult R = Rig.M.push(T, 1);
  EXPECT_FALSE(R.Applied);
  EXPECT_TRUE(failedOn(R, "PUSH criterion (i)"));
}

TEST(Push, ReadOfOwnWriteMayPushFirstOnlyWhenMoverHolds) {
  // write(0,1) then read(0)=1: the read *can* move left of the write
  // (reading the written value), so criterion (i) holds for the
  // out-of-order push — but criterion (iii) still rejects it because G
  // does not yet contain the write.
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1); v := mem.read(0) }");
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  RuleResult R = Rig.M.push(T, 1);
  EXPECT_FALSE(R.Applied);
  EXPECT_TRUE(failedOn(R, "PUSH criterion (iii)"));
  EXPECT_FALSE(failedOn(R, "PUSH criterion (i)"));
}

TEST(Push, RefusesAlreadyPushed) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1) }");
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T, 0).Applied);
  EXPECT_FALSE(Rig.M.push(T, 0).Applied);
}

// --- UNPUSH ----------------------------------------------------------------

TEST(UnPush, InverseOfPush) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1) }");
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T, 0).Applied);
  ASSERT_TRUE(Rig.M.unpush(T, 0).Applied);
  EXPECT_TRUE(Rig.M.global().empty());
  EXPECT_EQ(Rig.M.thread(T).L[0].Kind, LocalKind::NotPushed);
}

TEST(UnPush, RefusesCommittedOperation) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1) }");
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T, 0).Applied);
  // Commit flips the entry to gCmt; a fresh transaction cannot unpush it
  // (and the committing thread's local log is gone anyway).  Exercise the
  // flag check through a second uncommitted op.
  TxId T2 = Rig.addThread("tx { mem.write(1, 1) }");
  ASSERT_TRUE(Rig.M.app(T2, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T2, 0).Applied);
  ASSERT_TRUE(Rig.M.commit(T2).Applied);
  EXPECT_FALSE(Rig.M.unpush(T2, 0).Applied) << "no transaction in progress";
}

TEST(UnPush, CriterionIIRejectsWhenLaterOpsDepend) {
  // T0 pushes write(0,1); T1 pulls it (dependent) and publishes
  // read(0)=1.  T0's unpush would leave G = [read(0)=1], which is not
  // allowed.  Note the criteria themselves prevent T1's dependent
  // publication (PUSH criterion (ii) counts pulled-but-foreign ops), so
  // the configuration is built in Trusting mode and only the UNPUSH is
  // probed under full validation.
  RegisterRig Rig;
  MachineConfig Trusting;
  Trusting.Level = ValidationLevel::Trusting;
  PushPullMachine M(Rig.Spec, Rig.Movers, Trusting);
  TxId T0 = M.addThread({parseOrDie("tx { mem.write(0, 1) }")});
  TxId T1 = M.addThread({parseOrDie("tx { v := mem.read(0) }")});
  ASSERT_TRUE(M.beginTx(T0));
  ASSERT_TRUE(M.beginTx(T1));
  ASSERT_TRUE(M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(M.push(T0, 0).Applied);
  ASSERT_TRUE(M.pull(T1, 0).Applied);
  ASSERT_TRUE(M.app(T1, 0, 0).Applied);
  EXPECT_EQ(M.thread(T1).Sigma.getOrDie("v"), 1) << "saw uncommitted write";
  ASSERT_TRUE(M.push(T1, 1).Applied);
  M.setConfig(MachineConfig()); // Criteria mode for the probe.
  RuleResult R = M.unpush(T0, 0);
  EXPECT_FALSE(R.Applied);
  EXPECT_TRUE(failedOn(R, "UNPUSH criterion (ii)"));
}

TEST(Push, CriterionIICountsPulledForeignOps) {
  // A pulled uncommitted operation still constrains publication: T1
  // pulls T0's write and may *view* it, but cannot publish a conflicting
  // read of it until T0 commits (this is what keeps dependent
  // transactions serializable in commit order).
  RegisterRig Rig;
  TxId T0 = Rig.addThread("tx { mem.write(0, 1) }");
  TxId T1 = Rig.addThread("tx { v := mem.read(0) }");
  ASSERT_TRUE(Rig.M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T0, 0).Applied);
  ASSERT_TRUE(Rig.M.pull(T1, 0).Applied);
  ASSERT_TRUE(Rig.M.app(T1, 0, 0).Applied);
  EXPECT_EQ(Rig.M.thread(T1).Sigma.getOrDie("v"), 1);
  RuleResult R = Rig.M.push(T1, 1);
  EXPECT_FALSE(R.Applied);
  EXPECT_TRUE(failedOn(R, "PUSH criterion (ii)"));
  // After T0 commits, the publication goes through.
  ASSERT_TRUE(Rig.M.commit(T0).Applied);
  EXPECT_TRUE(Rig.M.push(T1, 1).Applied);
  EXPECT_TRUE(Rig.M.commit(T1).Applied);
}

TEST(UnPush, OutOfOrderRetraction) {
  // Push a, push b, unpush a (not last-pushed): legal when independent.
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1); mem.write(1, 2) }");
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T, 1).Applied);
  EXPECT_TRUE(Rig.M.unpush(T, 0).Applied);
  ASSERT_EQ(Rig.M.global().size(), 1u);
  EXPECT_EQ(Rig.M.global()[0].Op.Call.Args[0], Value(1));
}

// --- PULL ------------------------------------------------------------------

TEST(Pull, ViewsCommittedEffect) {
  RegisterRig Rig;
  TxId T0 = Rig.addThread("tx { mem.write(0, 2) }");
  TxId T1 = Rig.addThread("tx { v := mem.read(0) }");
  ASSERT_TRUE(Rig.M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T0, 0).Applied);
  ASSERT_TRUE(Rig.M.commit(T0).Applied);
  ASSERT_TRUE(Rig.M.pull(T1, 0).Applied);
  EXPECT_EQ(Rig.M.thread(T1).L[0].Kind, LocalKind::Pulled);
  // The pulled write now shapes the read's completion.
  ASSERT_TRUE(Rig.M.app(T1, 0, 0).Applied);
  EXPECT_EQ(Rig.M.thread(T1).Sigma.getOrDie("v"), 2);
}

TEST(Pull, CriterionIRejectsDoublePull) {
  RegisterRig Rig;
  TxId T0 = Rig.addThread("tx { mem.write(0, 2) }");
  TxId T1 = Rig.addThread("tx { v := mem.read(0) }");
  ASSERT_TRUE(Rig.M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T0, 0).Applied);
  ASSERT_TRUE(Rig.M.commit(T0).Applied);
  ASSERT_TRUE(Rig.M.pull(T1, 0).Applied);
  RuleResult R = Rig.M.pull(T1, 0);
  EXPECT_FALSE(R.Applied);
  EXPECT_TRUE(failedOn(R, "PULL criterion (i)"));
}

TEST(Pull, CriterionIIRejectsInconsistentView) {
  // T0 commits write(0,2) and read(0)=2.  T1, which read 0 from its empty
  // view, tries to pull T0's committed *read*: the local log
  // [read(0)=0, read(0)=2] is disallowed — criterion (ii).
  RegisterRig Rig;
  TxId T0 = Rig.addThread("tx { mem.write(0, 2); u := mem.read(0) }");
  TxId T1 = Rig.addThread("tx { v := mem.read(0); w := mem.read(0) }");
  ASSERT_TRUE(Rig.M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T0, 0).Applied);
  ASSERT_TRUE(Rig.M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T0, 1).Applied);
  ASSERT_TRUE(Rig.M.commit(T0).Applied);
  ASSERT_TRUE(Rig.M.app(T1, 0, 0).Applied); // read(0)=0 off the empty view.
  RuleResult R = Rig.M.pull(T1, 1); // T0's committed read(0)=2.
  EXPECT_FALSE(R.Applied);
  EXPECT_TRUE(failedOn(R, "PULL criterion (ii)"));
}

TEST(Pull, GrayCriterionIIIRejectsConflictingCommittedPull) {
  // Pulling a committed *write* after reading the old value: the local
  // log [read(0)=0, write(0,2)] is allowed (criterion (ii) passes), but
  // the gray criterion (iii) rejects it — our read cannot move right of
  // the pulled write, so we could not pretend the write preceded us.
  // Without this criterion the pull would succeed and the transaction
  // would wedge: its stale read(0)=0 can never pass PUSH criterion
  // (iii), so CMT criterion (ii) stays unsatisfiable (safety holds
  // regardless; see the explorer's gray-criteria ablation).
  RegisterRig Rig;
  TxId T0 = Rig.addThread("tx { mem.write(0, 2) }");
  TxId T1 = Rig.addThread("tx { v := mem.read(0); w := mem.read(0) }");
  // T1 reads 0 locally but does NOT push (else T0's publication would be
  // blocked by PUSH criterion (ii) — serializability protecting itself).
  ASSERT_TRUE(Rig.M.app(T1, 0, 0).Applied); // read(0)=0
  ASSERT_TRUE(Rig.M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T0, 0).Applied);
  ASSERT_TRUE(Rig.M.commit(T0).Applied);
  RuleResult R = Rig.M.pull(T1, Rig.M.global().size() - 1);
  EXPECT_FALSE(R.Applied);
  EXPECT_TRUE(failedOn(R, "PULL criterion (iii)"));
  EXPECT_FALSE(failedOn(R, "PULL criterion (ii)"));
}

TEST(Pull, UncommittedPullEstablishesDependency) {
  RegisterRig Rig;
  TxId T0 = Rig.addThread("tx { mem.write(0, 1) }");
  TxId T1 = Rig.addThread("tx { v := mem.read(0) }");
  ASSERT_TRUE(Rig.M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T0, 0).Applied);
  ASSERT_TRUE(Rig.M.pull(T1, 0).Applied);
  // The trace marks the pull as uncommitted — the opacity signal.
  bool Saw = false;
  for (const TraceEvent &E : Rig.M.trace().events())
    if (E.Rule == RuleKind::Pull && E.PulledUncommitted)
      Saw = true;
  EXPECT_TRUE(Saw);
}

// --- UNPULL ----------------------------------------------------------------

TEST(UnPull, InverseOfPull) {
  RegisterRig Rig;
  TxId T0 = Rig.addThread("tx { mem.write(0, 2) }");
  TxId T1 = Rig.addThread("tx { v := mem.read(0) }");
  ASSERT_TRUE(Rig.M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T0, 0).Applied);
  ASSERT_TRUE(Rig.M.commit(T0).Applied);
  ASSERT_TRUE(Rig.M.pull(T1, 0).Applied);
  ASSERT_TRUE(Rig.M.unpull(T1, 0).Applied);
  EXPECT_TRUE(Rig.M.thread(T1).L.empty());
}

TEST(UnPull, CriterionIRejectsWhenDependedUpon) {
  RegisterRig Rig;
  TxId T0 = Rig.addThread("tx { mem.write(0, 2) }");
  TxId T1 = Rig.addThread("tx { v := mem.read(0) }");
  ASSERT_TRUE(Rig.M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T0, 0).Applied);
  ASSERT_TRUE(Rig.M.commit(T0).Applied);
  ASSERT_TRUE(Rig.M.pull(T1, 0).Applied);
  ASSERT_TRUE(Rig.M.app(T1, 0, 0).Applied); // read(0)=2 depends on pull.
  RuleResult R = Rig.M.unpull(T1, 0);
  EXPECT_FALSE(R.Applied);
  EXPECT_TRUE(failedOn(R, "UNPULL criterion (i)"));
}

TEST(UnPull, RefusesNonPulledEntry) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1) }");
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  EXPECT_FALSE(Rig.M.unpull(T, 0).Applied);
}

// --- CMT -------------------------------------------------------------------

TEST(Cmt, CommitsAndClearsThread) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1) }");
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T, 0).Applied);
  ASSERT_TRUE(Rig.M.commit(T).Applied);
  EXPECT_FALSE(Rig.M.thread(T).InTx);
  EXPECT_TRUE(Rig.M.thread(T).L.empty());
  ASSERT_EQ(Rig.M.global().size(), 1u);
  EXPECT_EQ(Rig.M.global()[0].Kind, GlobalKind::Committed);
  ASSERT_EQ(Rig.M.committed().size(), 1u);
  EXPECT_EQ(Rig.M.committed()[0].Tid, T);
  EXPECT_TRUE(Rig.M.quiescent());
}

TEST(Cmt, CriterionIRejectsUnfinishedCode) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1) }");
  RuleResult R = Rig.M.commit(T);
  EXPECT_FALSE(R.Applied);
  EXPECT_TRUE(failedOn(R, "CMT criterion (i)"));
}

TEST(Cmt, CriterionIIRejectsUnpushedOps) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1) }");
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  RuleResult R = Rig.M.commit(T);
  EXPECT_FALSE(R.Applied);
  EXPECT_TRUE(failedOn(R, "CMT criterion (ii)"));
}

TEST(Cmt, CriterionIIIRejectsUncommittedDependency) {
  // Counters: T1 pulls T0's uncommitted inc (a dependency) and performs
  // its own commuting inc, which publishes fine — but CMT criterion (iii)
  // gates T1's commit until T0 commits.
  CounterSpec Spec("c", 1, 8);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  TxId T0 = M.addThread({parseOrDie("tx { c.inc(0) }")});
  TxId T1 = M.addThread({parseOrDie("tx { c.inc(0) }")});
  ASSERT_TRUE(M.beginTx(T0));
  ASSERT_TRUE(M.beginTx(T1));
  ASSERT_TRUE(M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(M.push(T0, 0).Applied);
  ASSERT_TRUE(M.pull(T1, 0).Applied); // Dependency on uncommitted T0.
  ASSERT_TRUE(M.app(T1, 0, 0).Applied);
  ASSERT_TRUE(M.push(T1, 1).Applied) << "commuting publication is fine";
  RuleResult R = M.commit(T1);
  EXPECT_FALSE(R.Applied);
  EXPECT_TRUE(failedOn(R, "CMT criterion (iii)"));
  // Once T0 commits, T1 may too.
  ASSERT_TRUE(M.commit(T0).Applied);
  EXPECT_TRUE(M.commit(T1).Applied);
}

TEST(Cmt, ThreadRunsItsNextTransaction) {
  RegisterRig Rig;
  TxId T = Rig.M.addThread(
      {parseOrDie("tx { mem.write(0, 1) }"), parseOrDie("tx { mem.write(0, 2) }")});
  ASSERT_TRUE(Rig.M.beginTx(T));
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T, 0).Applied);
  ASSERT_TRUE(Rig.M.commit(T).Applied);
  EXPECT_FALSE(Rig.M.quiescent());
  ASSERT_TRUE(Rig.M.beginTx(T));
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T, 0).Applied);
  ASSERT_TRUE(Rig.M.commit(T).Applied);
  EXPECT_TRUE(Rig.M.quiescent());
  EXPECT_EQ(Rig.M.thread(T).Commits, 2u);
}

// --- Machine-wide behaviours -------------------------------------------------

TEST(Machine, TrustingModeSkipsSemanticCriteria) {
  RegisterSpec Spec("mem", 2, 3);
  MoverChecker Movers(Spec);
  MachineConfig MC;
  MC.Level = ValidationLevel::Trusting;
  PushPullMachine M(Spec, Movers, MC);
  TxId T0 = M.addThread({parseOrDie("tx { v := mem.read(0) }")});
  TxId T1 = M.addThread({parseOrDie("tx { mem.write(0, 1) }")});
  ASSERT_TRUE(M.beginTx(T0));
  ASSERT_TRUE(M.beginTx(T1));
  ASSERT_TRUE(M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(M.push(T0, 0).Applied);
  ASSERT_TRUE(M.app(T1, 0, 0).Applied);
  // In Criteria mode this push would be rejected (criterion (ii)).
  EXPECT_TRUE(M.push(T1, 0).Applied);
}

TEST(Machine, RejectedRulesLeaveStateUntouched) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { v := mem.read(0) }");
  std::string Before = Rig.M.toString();
  size_t TraceBefore = Rig.M.trace().size();
  EXPECT_FALSE(Rig.M.commit(T).Applied);
  EXPECT_FALSE(Rig.M.unapp(T).Applied);
  EXPECT_FALSE(Rig.M.push(T, 5).Applied);
  EXPECT_FALSE(Rig.M.pull(T, 5).Applied);
  EXPECT_EQ(Rig.M.toString(), Before);
  EXPECT_EQ(Rig.M.trace().size(), TraceBefore);
}

TEST(Machine, CommittedLogProjection) {
  RegisterRig Rig;
  TxId T0 = Rig.addThread("tx { mem.write(0, 1) }");
  TxId T1 = Rig.addThread("tx { mem.write(1, 1) }");
  ASSERT_TRUE(Rig.M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T0, 0).Applied);
  ASSERT_TRUE(Rig.M.commit(T0).Applied);
  ASSERT_TRUE(Rig.M.app(T1, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T1, 0).Applied);
  EXPECT_EQ(Rig.M.committedLog().size(), 1u) << "uncommitted excluded";
}

TEST(Machine, BeginTxRequiresIdleThread) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1) }");
  EXPECT_FALSE(Rig.M.beginTx(T)) << "already in a transaction";
}

TEST(Machine, StripsTxWrapperOnAdd) {
  RegisterRig Rig;
  TxId T = Rig.M.addThread({parseOrDie("tx { skip }")});
  ASSERT_TRUE(Rig.M.beginTx(T));
  EXPECT_TRUE(fin(Rig.M.thread(T).Code));
  EXPECT_TRUE(Rig.M.commit(T).Applied) << "empty transaction commits";
}

TEST(Pull, NonChronologicalOrderAcrossObjects) {
  // Section 4's PULL discussion: "in a transaction that operates over
  // two shared data-structures a and b, it may PULL in the effects on a
  // even if they occurred after the effects on b."  Build committed
  // history b-then-a and pull a's effect first.
  RegisterSpec SpecA("a", 1, 3);
  RegisterSpec SpecB("b", 1, 3);
  CompositeSpec Spec;
  Spec.add("a", std::make_shared<RegisterSpec>("a", 1, 3));
  Spec.add("b", std::make_shared<RegisterSpec>("b", 1, 3));
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  TxId T0 = M.addThread({parseOrDie("tx { b.write(0, 1); a.write(0, 2) }")});
  TxId T1 = M.addThread({parseOrDie("tx { v := a.read(0) }")});
  ASSERT_TRUE(M.beginTx(T0));
  ASSERT_TRUE(M.beginTx(T1));
  ASSERT_TRUE(M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(M.push(T0, 0).Applied); // b first in G...
  ASSERT_TRUE(M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(M.push(T0, 1).Applied); // ...a second.
  ASSERT_TRUE(M.commit(T0).Applied);
  // T1 pulls a's effect (G index 1) without ever pulling b's.
  ASSERT_TRUE(M.pull(T1, 1).Applied);
  ASSERT_TRUE(M.app(T1, 0, 0).Applied);
  EXPECT_EQ(M.thread(T1).Sigma.getOrDie("v"), 2);
  ASSERT_TRUE(M.push(T1, 1).Applied);
  ASSERT_TRUE(M.commit(T1).Applied);
  SerializabilityChecker Oracle(Spec);
  EXPECT_EQ(Oracle.checkCommitOrder(M).Serializable, Tri::Yes);
}

TEST(Machine, CopiesAreIndependent) {
  // The explorer forks machines; a copy's mutations must not leak back.
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1) }");
  PushPullMachine Copy = Rig.M;
  ASSERT_TRUE(Copy.app(T, 0, 0).Applied);
  ASSERT_TRUE(Copy.push(T, 0).Applied);
  EXPECT_EQ(Copy.global().size(), 1u);
  EXPECT_TRUE(Rig.M.global().empty()) << "original untouched";
  EXPECT_TRUE(Rig.M.thread(T).L.empty());
  EXPECT_EQ(Rig.M.trace().size(), 0u);
}

// --- configKey ---------------------------------------------------------------
//
// The key names remaining code and committed history by ids the spec's
// table interns by text, so it must partition configurations exactly as
// the text did: equal for separately parsed copies of one program,
// different whenever the code or the history text differs.

namespace {

/// Parse every transaction afresh, so no two machines share a code node.
PushPullMachine counterMachine(const CounterSpec &Spec, MoverChecker &Movers,
                               const std::vector<std::vector<std::string>> &P) {
  PushPullMachine M(Spec, Movers);
  for (const std::vector<std::string> &Thread : P) {
    std::vector<CodePtr> Txs;
    for (const std::string &Tx : Thread)
      Txs.push_back(parseOrDie(Tx));
    M.addThread(Txs);
  }
  return M;
}

/// BEGIN, then APP/PUSH each of the thread's \p Ops calls and CMT.
void runTx(PushPullMachine &M, TxId T, size_t Ops) {
  ASSERT_TRUE(M.beginTx(T));
  for (size_t I = 0; I < Ops; ++I) {
    ASSERT_TRUE(M.app(T, 0, 0).Applied);
    ASSERT_TRUE(M.push(T, M.thread(T).L.size() - 1).Applied);
  }
  ASSERT_TRUE(M.commit(T).Applied);
}

} // namespace

TEST(ConfigKey, SeparatelyParsedCopiesKeyEqually) {
  CounterSpec Spec("c", 1, 3);
  MoverChecker Movers(Spec);
  const std::vector<std::vector<std::string>> Programs = {
      {"tx { c.inc(0); v := c.read(0) }"},
      {"tx { c.inc(0) }", "tx { c.inc(0) }"}};
  PushPullMachine A = counterMachine(Spec, Movers, Programs);
  PushPullMachine B = counterMachine(Spec, Movers, Programs);
  // Keyed after every step, the committed section included.
  std::vector<std::string> KeysA, KeysB;
  for (PushPullMachine *M : {&A, &B}) {
    std::vector<std::string> &Keys = M == &A ? KeysA : KeysB;
    Keys.push_back(M->configKey());
    ASSERT_TRUE(M->beginTx(0));
    Keys.push_back(M->configKey());
    ASSERT_TRUE(M->app(0, 0, 0).Applied);
    Keys.push_back(M->configKey());
    runTx(*M, 1, 1);
    Keys.push_back(M->configKey());
    runTx(*M, 1, 1);
    Keys.push_back(M->configKey());
  }
  ASSERT_NE(A.committed()[0].Body.get(), B.committed()[0].Body.get());
  EXPECT_EQ(KeysA, KeysB);
  // The symmetry minimization renders the same sections.
  std::string CanonA, CanonB;
  size_t PiA = 0, PiB = 0;
  A.configKeyCanonicalInto(CanonA, {{0, 1}, {1, 0}}, PiA);
  B.configKeyCanonicalInto(CanonB, {{0, 1}, {1, 0}}, PiB);
  EXPECT_EQ(CanonA, CanonB);
  EXPECT_EQ(PiA, PiB);
}

TEST(ConfigKey, RemainingCodeAloneDistinguishes) {
  CounterSpec Spec("c", 1, 3);
  MoverChecker Movers(Spec);
  PushPullMachine A =
      counterMachine(Spec, Movers, {{"tx { c.inc(0); c.inc(0) }"}});
  PushPullMachine B =
      counterMachine(Spec, Movers, {{"tx { c.inc(0); c.read(0) }"}});
  for (PushPullMachine *M : {&A, &B}) {
    ASSERT_TRUE(M->beginTx(0));
    ASSERT_TRUE(M->app(0, 0, 0).Applied);
  }
  // Same local log, stack, shared log and history; only the remaining
  // code differs.
  EXPECT_EQ(A.thread(0).L.toString(), B.thread(0).L.toString());
  EXPECT_NE(A.configKey(), B.configKey());
}

TEST(ConfigKey, CommittedContentAloneDistinguishes) {
  CounterSpec Spec("c", 1, 3);
  MoverChecker Movers(Spec);
  PushPullMachine A = counterMachine(Spec, Movers, {{"tx { c.inc(0) }"}});
  PushPullMachine B =
      counterMachine(Spec, Movers, {{"tx { c.inc(0); skip }"}});
  PushPullMachine C = counterMachine(Spec, Movers, {{"tx { c.inc(0) }"}});
  for (PushPullMachine *M : {&A, &B, &C})
    runTx(*M, 0, 1);
  // Every thread is done and G holds one committed c.inc(0) in each; only
  // the committed body's text differs between A and B.
  EXPECT_EQ(A.toString(), B.toString());
  EXPECT_NE(A.configKey(), B.configKey());
  EXPECT_EQ(A.configKey(), C.configKey());

  // Histories that differ only before their last record: each record's id
  // must depend on the whole history before it.
  PushPullMachine D = counterMachine(
      Spec, Movers, {{"tx { c.inc(0) }", "tx { c.inc(0) }"}});
  PushPullMachine E = counterMachine(
      Spec, Movers, {{"tx { c.inc(0); skip }", "tx { c.inc(0) }"}});
  for (PushPullMachine *M : {&D, &E}) {
    runTx(*M, 0, 1);
    runTx(*M, 0, 1);
  }
  EXPECT_EQ(D.toString(), E.toString());
  EXPECT_NE(D.configKey(), E.configKey());
}

//===- tests/undo_test.cpp - The machine's undo trail ------------------------===//
//
// Pins the undo contract of PushPullMachine::mark / rollbackTo: firing any
// candidate under a mark and rolling it back leaves the machine equal to a
// copy taken before, in everything a later rule, the oracle or a report
// reads -- including the writes configKey does not see (BEGIN's OrigSigma,
// CMT's wholesale L replacement, the id source APP draws from).  Driven
// over random engine runs of every engine and spec kind, and over random
// walks of backward-rule explorer scopes.  After every firing and every
// rollback, and after installing analysis shapes, each log entry's stored
// prefix denotation must equal a fresh fold of the log up to it.
//
//===----------------------------------------------------------------------===//

#include "analysis/IndependenceAudit.h"
#include "analysis/Shapes.h"
#include "fuzz/Generator.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "sim/Scenario.h"
#include "spec/CounterSpec.h"
#include "spec/RegisterSpec.h"
#include "tm/Engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

using namespace pushpull;

namespace {

std::string ptrText(const void *P) {
  return std::to_string(reinterpret_cast<uintptr_t>(P));
}

/// Everything a rollback must restore that configKey() and toString() do
/// not already render, one field per line so a mismatch reads as a diff.
std::string hiddenState(const PushPullMachine &M) {
  std::string Out;
  for (const CommittedTx &C : M.committed())
    Out += "commit t" + std::to_string(C.Tid) + " body=" +
           ptrText(C.Body.get()) + " sigma=" + C.Sigma.toString() +
           " final=" + C.FinalSigma.toString() +
           " seq=" + std::to_string(C.CommitSeq) + "\n";
  for (const ThreadState &Th : M.threads()) {
    Out += "t" + std::to_string(Th.Tid) + " intx=" +
           std::to_string(Th.InTx) + " code=" + ptrText(Th.Code.get()) +
           " sigma=" + Th.Sigma.toString() +
           " orig=" + ptrText(Th.OrigCode.get()) +
           " origsigma=" + Th.OrigSigma.toString() +
           " pending=" + std::to_string(Th.Pending.size()) +
           " commits=" + std::to_string(Th.Commits) + " L=";
    for (const LocalEntry &E : Th.L)
      Out += std::to_string(E.Op.Id) + "/" + ptrText(E.SavedCode.get()) + " ";
    Out += "\n";
  }
  Out += "trace " + std::to_string(M.trace().size()) + " next " +
         std::to_string(M.trace().nextSeq()) + "\n";
  Out += "audit " + std::to_string(M.audit().size()) + "\n";
  return Out;
}

/// The id the next APP draws: fired on a copy, so the probe cannot
/// depend on the mechanism under test.  0 when no thread can APP.
OpId nextAppId(const PushPullMachine &M) {
  for (const ThreadState &Th : M.threads()) {
    if (!Th.InTx)
      continue;
    std::vector<AppChoice> Choices = M.appChoices(Th.Tid);
    if (Choices.empty())
      continue;
    PushPullMachine Probe = M;
    if (!Probe.app(Th.Tid, Choices[0].StepIdx, 0).Applied)
      continue;
    const LocalLog &L = Probe.thread(Th.Tid).L;
    return L[L.size() - 1].Op.Id;
  }
  return 0;
}

/// Every L and G entry's stored prefix denotation (core/Log.h) equals a
/// fresh applyOpId fold of its log up to and including it.
void expectPrefixesFolded(const PushPullMachine &M, const std::string &Tag) {
  const SequentialSpec &Spec = M.spec();
  for (const ThreadState &Th : M.threads()) {
    StateSetId S = Spec.initialId();
    size_t I = 0;
    for (const LocalEntry &E : Th.L) {
      S = Spec.applyOpId(S, E.Op);
      EXPECT_EQ(E.Prefix, S) << Tag << ": t" << Th.Tid << " L[" << I << "]";
      ++I;
    }
  }
  StateSetId S = Spec.initialId();
  size_t I = 0;
  for (const GlobalEntry &E : M.global()) {
    S = Spec.applyOpId(S, E.Op);
    EXPECT_EQ(E.Prefix, S) << Tag << ": G[" << I << "]";
    ++I;
  }
}

void expectSameMachine(const PushPullMachine &Got,
                       const PushPullMachine &Want, const std::string &Tag) {
  EXPECT_TRUE(Got.configKey() == Want.configKey()) << Tag;
  EXPECT_EQ(Got.toString(), Want.toString()) << Tag;
  EXPECT_EQ(hiddenState(Got), hiddenState(Want)) << Tag;
  EXPECT_EQ(nextAppId(Got), nextAppId(Want)) << Tag;
  expectPrefixesFolded(Got, Tag);
}

struct RoundTrips {
  size_t Applied = 0;
  size_t Rejected = 0;
  size_t Nested = 0;
  uint32_t RulesSeen = 0; ///< Or of ruleBit over applied firings.
};

uint32_t firingBit(FiringKind K) {
  switch (K) {
  case FiringKind::Begin:
    return 0;
  case FiringKind::App:
    return ruleBit(RuleKind::App);
  case FiringKind::UnApp:
    return ruleBit(RuleKind::UnApp);
  case FiringKind::Push:
    return ruleBit(RuleKind::Push);
  case FiringKind::UnPush:
    return ruleBit(RuleKind::UnPush);
  case FiringKind::Pull:
    return ruleBit(RuleKind::Pull);
  case FiringKind::UnPull:
    return ruleBit(RuleKind::UnPull);
  case FiringKind::Commit:
    return ruleBit(RuleKind::Commit);
  }
  return 0;
}

/// At \p M's configuration: every candidate fired under a mark and rolled
/// back, then nested marks over the first two firings that apply.
void checkRoundTrips(PushPullMachine &M, const std::string &Tag,
                     RoundTrips &Count) {
  // With no mark open the trail is empty.
  PushPullMachine::UndoMark Probe = M.mark();
  EXPECT_EQ(Probe.Records, 0u) << Tag;
  M.rollbackTo(Probe);

  const PushPullMachine Before = M;
  std::vector<Firing> Fired;
  for (const Candidate &C : allCandidates(M)) {
    std::string CTag = Tag + " " + C.F.toString();
    PushPullMachine::UndoMark Mark = M.mark();
    bool Applied = applyFiring(M, C.F);
    expectPrefixesFolded(M, CTag + " fired");
    PushPullMachine::UndoMark After = M.mark();
    if (Applied) {
      EXPECT_EQ(After.Records, Mark.Records + 1) << CTag;
      ++Count.Applied;
      Count.RulesSeen |= firingBit(C.F.Kind);
      Fired.push_back(C.F);
    } else {
      EXPECT_EQ(After.Records, Mark.Records)
          << CTag << ": a rejected firing records nothing";
      ++Count.Rejected;
    }
    M.rollbackTo(After);
    M.rollbackTo(Mark);
    expectSameMachine(M, Before, CTag);
  }

  if (Fired.size() < 2)
    return;
  // Apply A, mark, apply B, roll back the inner mark, then the outer.
  PushPullMachine::UndoMark Outer = M.mark();
  ASSERT_TRUE(applyFiring(M, Fired[0])) << Tag;
  const PushPullMachine AfterA = M;
  PushPullMachine::UndoMark Inner = M.mark();
  // Fired[1] was enabled before Fired[0]; it may not be any longer.
  if (applyFiring(M, Fired[1]))
    ++Count.Nested;
  expectPrefixesFolded(M, Tag + " nested " + Fired[1].toString());
  M.rollbackTo(Inner);
  expectSameMachine(M, AfterA, Tag + " inner " + Fired[1].toString());
  M.rollbackTo(Outer);
  expectSameMachine(M, Before, Tag + " outer " + Fired[0].toString());
}

} // namespace

TEST(Undo, RoundTripsOverRandomEngineRuns) {
  // Each engine runs over each spec kind (the generator cycles engines and
  // kinds); its own validation dry runs happen under marks inside step().
  GeneratorConfig GC;
  GC.Seed = 20261019;
  GC.MaxThreads = 3;
  GC.MaxTxPerThread = 2;
  GC.MaxOpsPerTx = 2;
  Generator Gen(GC);
  const size_t Kinds = allSpecKinds().size() + 1; // + "composite".
  const size_t Cases = allEngineNames().size() * Kinds;

  std::mt19937_64 Rng(7);
  RoundTrips Count;
  for (size_t CaseIdx = 0; CaseIdx < Cases; ++CaseIdx) {
    FuzzCase C = Gen.next();
    std::string Error;
    std::shared_ptr<const SequentialSpec> Spec = C.buildSpec(Error);
    ASSERT_TRUE(Spec) << Error;
    MoverChecker Movers(*Spec);
    MachineConfig MC;
    // Half the runs keep the audit log, so its length is rolled back too.
    MC.RecordAudit = CaseIdx % 2 == 0;
    PushPullMachine M(*Spec, Movers, MC);
    for (const auto &P : C.Threads)
      M.addThread(P);
    std::unique_ptr<TMEngine> E = makeEngine(C.Engine, C.EngineOpts, M, Error);
    ASSERT_TRUE(E) << Error;
    for (int Step = 0; Step < 40 && !M.quiescent(); ++Step) {
      checkRoundTrips(M, C.Engine + " case " + std::to_string(CaseIdx) +
                             " step " + std::to_string(Step),
                      Count);
      TxId T = static_cast<TxId>(Rng() % M.threads().size());
      E->step(T);
    }
  }
  EXPECT_GT(Count.Applied, 1000u);
  EXPECT_GT(Count.Rejected, 100u);
  EXPECT_GT(Count.Nested, 50u);
  // Every rule, the backward ones included, was rolled back somewhere.
  EXPECT_EQ(Count.RulesSeen, allRulesMask());
}

TEST(Undo, RoundTripsOverBackwardRuleScopes) {
  // Random walks over every candidate, backward rules included, of the
  // explorer's backward-rule scopes.
  struct Scope {
    std::shared_ptr<SequentialSpec> Spec;
    std::vector<std::string> Programs;
  };
  std::vector<Scope> Scopes = {
      {std::make_shared<RegisterSpec>("mem", 1, 2),
       {"tx { mem.write(0, 1) }", "tx { v := mem.read(0) }"}},
      {std::make_shared<CounterSpec>("c", 1, 3),
       {"tx { c.inc(0); c.inc(0) }", "tx { c.inc(0) }; tx { c.inc(0) }"}},
  };
  std::mt19937_64 Rng(3);
  RoundTrips Count;
  for (size_t SI = 0; SI < Scopes.size(); ++SI) {
    for (int Walk = 0; Walk < 12; ++Walk) {
      MoverChecker Movers(*Scopes[SI].Spec);
      PushPullMachine M(*Scopes[SI].Spec, Movers);
      for (const std::string &P : Scopes[SI].Programs) {
        std::string Error;
        std::vector<CodePtr> Txs = flattenTransactions(parseOrDie(P), Error);
        ASSERT_TRUE(Error.empty()) << Error;
        M.addThread(Txs);
      }
      for (int Step = 0; Step < 24 && !M.quiescent(); ++Step) {
        checkRoundTrips(M, "scope " + std::to_string(SI) + " walk " +
                               std::to_string(Walk) + " step " +
                               std::to_string(Step),
                        Count);
        std::vector<Candidate> Cands = allCandidates(M);
        std::shuffle(Cands.begin(), Cands.end(), Rng);
        for (const Candidate &C : Cands)
          if (applyFiring(M, C.F))
            break;
      }
    }
  }
  EXPECT_EQ(Count.RulesSeen, allRulesMask());
}

TEST(Undo, RoundTripsOverInstalledShapes) {
  // installForAnalysis plants logs built outside the machine, so it folds
  // every entry's prefix itself; every firing from an installed shape, the
  // backward rules included, must then keep them folded.
  std::vector<std::shared_ptr<SequentialSpec>> Specs = {
      std::make_shared<RegisterSpec>("mem", 1, 2),
      std::make_shared<CounterSpec>("c", 1, 3)};
  RoundTrips Count;
  for (const std::shared_ptr<SequentialSpec> &Spec : Specs) {
    ShapeScope Scope;
    Scope.IncludeIdle = true;
    Scope.OtherCodeCalls = true;
    std::vector<Operation> Alphabet = shapeAlphabet(*Spec, Scope.MaxAlphabet);
    MoverChecker Movers(*Spec);
    PushPullMachine M(*Spec, Movers);
    uint64_t Shape = 0;
    enumerateShapes(Scope, Alphabet.size(), [&](const AbstractShape &S) {
      // Every shape is installed and checked, denotable or not; a sample
      // of them is also fired from.
      installShape(materializeShape(S, Alphabet), M);
      std::string Tag = Spec->name() + " shape " + std::to_string(Shape);
      expectPrefixesFolded(M, Tag + " installed");
      if (Shape % 7 == 0 && shapeDenotable(S, Alphabet, *Spec))
        checkRoundTrips(M, Tag, Count);
      return ++Shape < 2000;
    });
  }
  EXPECT_GT(Count.Applied, 100u);
  EXPECT_EQ(Count.RulesSeen & ruleBit(RuleKind::UnPush),
            ruleBit(RuleKind::UnPush));
  EXPECT_EQ(Count.RulesSeen & ruleBit(RuleKind::UnPull),
            ruleBit(RuleKind::UnPull));
}

TEST(Undo, CopiesStartWithAnEmptyTrail) {
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  M.addThread({parseOrDie("tx { mem.write(0, 1) }")});
  const PushPullMachine Before = M;
  PushPullMachine::UndoMark Mark = M.mark();
  ASSERT_TRUE(M.beginTx(0));
  ASSERT_TRUE(M.app(0, 0, 0).Applied);
  PushPullMachine Copy = M;
  PushPullMachine::UndoMark CopyMark = Copy.mark();
  EXPECT_EQ(CopyMark.Records, 0u);
  EXPECT_EQ(CopyMark.Depth, 1u);
  Copy.rollbackTo(CopyMark);
  M.rollbackTo(Mark);
  expectSameMachine(M, Before, "original");
  // The copy keeps the configuration it was taken in.
  EXPECT_EQ(Copy.thread(0).L.size(), 1u);
  EXPECT_TRUE(Copy.thread(0).InTx);
}

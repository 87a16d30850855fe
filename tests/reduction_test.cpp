//===- tests/reduction_test.cpp - POR equivalence battery ---------------------===//
//
// A reduction bug would silently *hide* non-serializable runs, so the
// partial-order reduction layer is held to an observation-equivalence
// standard: on a grid of small scopes, every reduction mode must report
// the same verdicts as full enumeration, under both the sequential and
// the parallel engine; with a planted criterion bug, every mode must
// still find the counterexample; and the independence relation itself is
// cross-validated by executing claimed-independent firing pairs in both
// orders from fuzzed configurations and comparing the resulting interned
// configuration ids.
//
//===----------------------------------------------------------------------===//

#include "sim/Explorer.h"

#include "analysis/MoverTable.h"
#include "fuzz/Generator.h"
#include "lang/Parser.h"
#include "spec/CounterSpec.h"
#include "spec/MapSpec.h"
#include "spec/RegisterSpec.h"
#include "spec/SetSpec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

using namespace pushpull;

namespace {

constexpr Reduction AllModes[] = {Reduction::None, Reduction::Sleep,
                                  Reduction::Persistent,
                                  Reduction::PersistentSymmetry};

/// One battery scope: a spec factory, per-thread programs, and the
/// explorer toggles that define it.
struct Scope {
  const char *Name;
  std::function<std::unique_ptr<SequentialSpec>()> MakeSpec;
  std::vector<std::string> Programs;
  bool Backward = false;
  bool Invariants = false;
  /// Threads with textually identical programs, so symmetry must merge.
  bool Symmetric = false;
};

ExplorerReport runScope(const Scope &S, Reduction Mode, unsigned Threads) {
  auto Spec = S.MakeSpec();
  MoverChecker Movers(*Spec);
  ExplorerConfig EC;
  EC.Reduce = Mode;
  EC.Threads = Threads;
  EC.ExploreBackwardRules = S.Backward;
  EC.CheckInvariants = S.Invariants;
  EC.MaxConfigs = 2000000;
  // Backward scopes have an *unbounded* configuration space under full
  // enumeration: UNPUSH can retract an entry another thread already
  // pulled, and an UNAPP/APP round recreates the operation under a fresh
  // id, so the puller's local log accumulates dangling pulled entries
  // without limit.  They therefore run depth-truncated — and on truncated
  // searches only the verdicts are comparable (which configurations fall
  // inside the bound depends on traversal order; see Explorer.h).
  EC.MaxDepth = S.Backward ? 40 : 64;
  Explorer E(*Spec, Movers, EC);
  std::vector<std::vector<CodePtr>> Ps;
  for (const std::string &P : S.Programs)
    Ps.push_back({parseOrDie(P)});
  return E.explore(Ps);
}

std::vector<Scope> batteryScopes() {
  auto Reg = [] { return std::make_unique<RegisterSpec>("mem", 1, 2); };
  auto Cnt = [] { return std::make_unique<CounterSpec>("c", 1, 3); };
  auto Set = [] { return std::make_unique<SetSpec>("set", 2); };
  return {
      {"counter 2x2 symmetric", Cnt,
       {"tx { c.inc(0); c.inc(0) }", "tx { c.inc(0); c.inc(0) }"},
       /*Backward=*/false, /*Invariants=*/false, /*Symmetric=*/true},
      {"counter 3 threads symmetric", Cnt,
       {"tx { c.inc(0) }", "tx { c.inc(0) }", "tx { c.inc(0) }"},
       /*Backward=*/false, /*Invariants=*/false, /*Symmetric=*/true},
      {"set distinct + invariants", Set,
       {"tx { a := set.add(0) }", "tx { b := set.add(0); c := set.remove(1) }"},
       /*Backward=*/false, /*Invariants=*/true, /*Symmetric=*/false},
      {"register r/w vs w", Reg,
       {"tx { v := mem.read(0); mem.write(0, 1) }", "tx { mem.write(0, 0) }"},
       /*Backward=*/false, /*Invariants=*/false, /*Symmetric=*/false},
      {"register backward", Reg,
       {"tx { mem.write(0, 1) }", "tx { v := mem.read(0) }"},
       /*Backward=*/true, /*Invariants=*/false, /*Symmetric=*/false},
      {"counter backward symmetric", Cnt,
       {"tx { c.inc(0) }", "tx { c.inc(0) }"},
       /*Backward=*/true, /*Invariants=*/false, /*Symmetric=*/true},
  };
}

} // namespace

// ---------------------------------------------------------------------------
// The equivalence battery: every mode x thread count against Reduction=None.
// ---------------------------------------------------------------------------

TEST(ReductionEquivalence, BatteryMatchesFullEnumeration) {
  for (const Scope &S : batteryScopes()) {
    ExplorerReport Base = runScope(S, Reduction::None, 1);
    if (!S.Backward) {
      ASSERT_FALSE(Base.Truncated) << S.Name;
    }
    ASSERT_GT(Base.TerminalConfigs, 0u) << S.Name;
    ASSERT_TRUE(Base.clean()) << S.Name << ": " << Base.FirstFailure;

    for (Reduction Mode : AllModes) {
      for (unsigned Threads : {1u, 4u}) {
        ExplorerReport R = runScope(S, Mode, Threads);
        std::string Tag = std::string(S.Name) + " / " + toString(Mode) +
                          " / threads=" + std::to_string(Threads);
        if (!S.Backward) {
          ASSERT_FALSE(R.Truncated) << Tag;
        }

        // Verdicts are preserved by every mode (on these clean scopes:
        // all zero).
        EXPECT_EQ(R.NonSerializable, Base.NonSerializable) << Tag;
        EXPECT_EQ(R.InvariantViolations, Base.InvariantViolations) << Tag;
        EXPECT_TRUE(R.clean()) << Tag << ": " << R.FirstFailure;

        // Totals are only comparable between non-truncated searches
        // (truncation cuts at a traversal-order-dependent frontier).
        if (Base.Truncated || R.Truncated)
          continue;

        if (Mode == Reduction::None) {
          EXPECT_EQ(R.ConfigsVisited, Base.ConfigsVisited) << Tag;
          EXPECT_EQ(R.TerminalConfigs, Base.TerminalConfigs) << Tag;
          EXPECT_EQ(R.FiringsPruned, 0u) << Tag;
        } else if (Mode == Reduction::Sleep) {
          // Sleep sets prune transitions, never states: identical closure.
          EXPECT_EQ(R.ConfigsVisited, Base.ConfigsVisited) << Tag;
          EXPECT_EQ(R.TerminalConfigs, Base.TerminalConfigs) << Tag;
        } else if (Mode == Reduction::Persistent) {
          // Persistent sets may skip intermediate configurations but
          // reach every quiescent terminal.
          EXPECT_LE(R.ConfigsVisited, Base.ConfigsVisited) << Tag;
          EXPECT_EQ(R.TerminalConfigs, Base.TerminalConfigs) << Tag;
        } else {
          // Symmetry also merges terminals (quotient under renaming).
          EXPECT_LE(R.ConfigsVisited, Base.ConfigsVisited) << Tag;
          EXPECT_LE(R.TerminalConfigs, Base.TerminalConfigs) << Tag;
          if (S.Symmetric) {
            EXPECT_GT(R.SymmetryHits, 0u) << Tag;
            EXPECT_LT(R.TerminalConfigs, Base.TerminalConfigs) << Tag;
          } else {
            // No identical programs: the group is trivial and the mode
            // degenerates to Persistent exactly.
            ExplorerReport P = runScope(S, Reduction::Persistent, 1);
            EXPECT_EQ(R.ConfigsVisited, P.ConfigsVisited) << Tag;
            EXPECT_EQ(R.TerminalConfigs, P.TerminalConfigs) << Tag;
            EXPECT_EQ(R.SymmetryHits, 0u) << Tag;
          }
        }
      }

      // The deterministic aggregates agree between the sequential and the
      // parallel engine, mode by mode (non-truncated searches only).
      ExplorerReport Seq = runScope(S, Mode, 1);
      ExplorerReport Par = runScope(S, Mode, 4);
      std::string Tag = std::string(S.Name) + " / " + toString(Mode);
      EXPECT_EQ(Par.NonSerializable, Seq.NonSerializable) << Tag;
      EXPECT_EQ(Par.InvariantViolations, Seq.InvariantViolations) << Tag;
      if (!Seq.Truncated && !Par.Truncated) {
        EXPECT_EQ(Par.ConfigsVisited, Seq.ConfigsVisited) << Tag;
        EXPECT_EQ(Par.TerminalConfigs, Seq.TerminalConfigs) << Tag;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The reduction's headline capability: full enumeration of the backward
// rules diverges (UNPUSH + UNAPP/APP recreate pulled operations under
// fresh ids, so local logs grow without bound), but the divergent branch
// is a commuted-pair cycle — and sleep sets prune it.  The same scope
// that only ever truncates under Reduction::None *completes* under Sleep
// and Persistent, with deterministic totals across engines.
// ---------------------------------------------------------------------------

TEST(ReductionEquivalence, SleepSetsCloseDivergentBackwardSpace) {
  Scope S{"register backward",
          [] { return std::make_unique<RegisterSpec>("mem", 1, 2); },
          {"tx { mem.write(0, 1) }", "tx { v := mem.read(0) }"},
          /*Backward=*/true,
          /*Invariants=*/false,
          /*Symmetric=*/false};

  // Full enumeration hits the depth bound — and the visited count keeps
  // growing as the bound is raised, the signature of divergence.
  ExplorerReport None = runScope(S, Reduction::None, 1);
  EXPECT_TRUE(None.Truncated);

  for (Reduction Mode :
       {Reduction::Sleep, Reduction::Persistent,
        Reduction::PersistentSymmetry}) {
    ExplorerReport Seq = runScope(S, Mode, 1);
    ExplorerReport Par = runScope(S, Mode, 4);
    std::string Tag = toString(Mode);
    ASSERT_FALSE(Seq.Truncated)
        << Tag << ": the reduced backward search must close";
    ASSERT_FALSE(Par.Truncated) << Tag;
    EXPECT_TRUE(Seq.clean()) << Tag << ": " << Seq.FirstFailure;
    // Both quiescent terminals (t0-then-t1 and t1-then-t0 commit orders)
    // survive the reduction, on both engines.
    EXPECT_EQ(Seq.TerminalConfigs, 2u) << Tag;
    EXPECT_EQ(Par.TerminalConfigs, 2u) << Tag;
    EXPECT_EQ(Par.ConfigsVisited, Seq.ConfigsVisited) << Tag;
    EXPECT_LT(Seq.ConfigsVisited, None.ConfigsVisited)
        << Tag << ": closing the space must also shrink it";
  }
}

// ---------------------------------------------------------------------------
// The reduction target: on a 3-identical-thread scope the symmetry
// quotient (|S3| = 6) dominates, and Persistent+Symmetry must visit at
// most 40% of the full enumeration's configurations while agreeing on
// the verdicts.  (Measured: ~16%.)
// ---------------------------------------------------------------------------

TEST(ReductionEquivalence, SymmetryMeetsReductionTarget) {
  Scope S{"counter 3 threads symmetric",
          [] { return std::make_unique<CounterSpec>("c", 1, 3); },
          {"tx { c.inc(0) }", "tx { c.inc(0) }", "tx { c.inc(0) }"},
          /*Backward=*/false,
          /*Invariants=*/false,
          /*Symmetric=*/true};
  ExplorerReport None = runScope(S, Reduction::None, 1);
  ExplorerReport PS = runScope(S, Reduction::PersistentSymmetry, 1);
  ASSERT_FALSE(None.Truncated);
  ASSERT_FALSE(PS.Truncated);
  EXPECT_TRUE(None.clean()) << None.FirstFailure;
  EXPECT_TRUE(PS.clean()) << PS.FirstFailure;
  EXPECT_EQ(PS.NonSerializable, None.NonSerializable);
  EXPECT_EQ(PS.InvariantViolations, None.InvariantViolations);
  // <= 40% of the full enumeration (integer form: 5 * reduced <= 2 * full).
  EXPECT_LE(PS.ConfigsVisited * 5, None.ConfigsVisited * 2)
      << "persistent+symmetry visited " << PS.ConfigsVisited << " of "
      << None.ConfigsVisited;
  // The full S3 orbit of terminals collapses to its representative.
  EXPECT_EQ(None.TerminalConfigs, 6u);
  EXPECT_EQ(PS.TerminalConfigs, 1u);
}

// ---------------------------------------------------------------------------
// The audit/trace bookkeeping the explorer elides (MachineConfig::
// RecordAudit, off by default during exploration) must be *pure*
// observation: switching it on cannot change a single explorer total or
// verdict on any scope x mode.
// ---------------------------------------------------------------------------

TEST(ReductionEquivalence, ExplorerResultsIdenticalWithAndWithoutAudit) {
  for (const Scope &S : batteryScopes()) {
    for (Reduction Mode : AllModes) {
      ExplorerReport ByConfig[2];
      for (bool Audit : {false, true}) {
        auto Spec = S.MakeSpec();
        MoverChecker Movers(*Spec);
        ExplorerConfig EC;
        EC.Reduce = Mode;
        EC.ExploreBackwardRules = S.Backward;
        EC.CheckInvariants = S.Invariants;
        EC.MaxDepth = S.Backward ? 40 : 64;
        EC.Machine.RecordAudit = Audit;
        Explorer E(*Spec, Movers, EC);
        std::vector<std::vector<CodePtr>> Ps;
        for (const std::string &P : S.Programs)
          Ps.push_back({parseOrDie(P)});
        ByConfig[Audit] = E.explore(Ps);
      }
      const ExplorerReport &Off = ByConfig[0], &On = ByConfig[1];
      std::string Tag = std::string(S.Name) + " / " + toString(Mode);
      EXPECT_EQ(On.ConfigsVisited, Off.ConfigsVisited) << Tag;
      EXPECT_EQ(On.TerminalConfigs, Off.TerminalConfigs) << Tag;
      EXPECT_EQ(On.RuleApplications, Off.RuleApplications) << Tag;
      EXPECT_EQ(On.RejectedAttempts, Off.RejectedAttempts) << Tag;
      EXPECT_EQ(On.NonSerializable, Off.NonSerializable) << Tag;
      EXPECT_EQ(On.InvariantViolations, Off.InvariantViolations) << Tag;
      EXPECT_EQ(On.FiringsPruned, Off.FiringsPruned) << Tag;
      EXPECT_EQ(On.Truncated, Off.Truncated) << Tag;
    }
  }
}

// ---------------------------------------------------------------------------
// Adversarial soundness: with a planted PUSH-criterion bug the explorer
// reports non-serializable terminals — and no reduction mode may prune
// the counterexample away.
// ---------------------------------------------------------------------------

namespace {

/// The shrinker test's pessimistic commit-phase clinic, as raw explorer
/// programs: thread 0 holds pushed reads of register 0/1 while thread 1
/// writes register 2 then register 0 — with PUSH criterion (ii) disabled
/// the second push is wrongly admitted ahead of the reads it invalidates.
Scope injectedBugScope() {
  return {"push(ii) clinic",
          [] { return std::make_unique<RegisterSpec>("mem", 3, 2); },
          {"tx { a := mem.read(0); b := mem.read(1); c := mem.read(1) }",
           "tx { mem.write(2, 1); mem.write(0, 1) }"},
          /*Backward=*/false,
          /*Invariants=*/false,
          /*Symmetric=*/false};
}

ExplorerReport runInjected(const Scope &S, Reduction Mode, unsigned Threads,
                           const std::string &DisabledCriterion,
                           bool CheckInvariants) {
  auto Spec = S.MakeSpec();
  MoverChecker Movers(*Spec);
  ExplorerConfig EC;
  EC.Reduce = Mode;
  EC.Threads = Threads;
  EC.MaxConfigs = 2000000;
  EC.CheckInvariants = CheckInvariants;
  EC.Machine.DisabledCriterion = DisabledCriterion;
  Explorer E(*Spec, Movers, EC);
  std::vector<std::vector<CodePtr>> Ps;
  for (const std::string &P : S.Programs)
    Ps.push_back({parseOrDie(P)});
  return E.explore(Ps);
}

} // namespace

TEST(ReductionSoundness, InjectedPushCriterionBugFoundUnderEveryMode) {
  Scope S = injectedBugScope();

  // With invariant checking on, the pool's invariant path is pinned too:
  // the planted bug also breaks the Section 5.3 invariants, and every
  // mode must count the same violations at 1 and 4 workers.
  for (bool Invariants : {false, true}) {
    std::string Inv = Invariants ? " / invariants" : "";
    // Sanity: the scope is clean without the injection.
    ExplorerReport Clean = runInjected(S, Reduction::None, 1, "", Invariants);
    ASSERT_FALSE(Clean.Truncated) << Inv;
    ASSERT_TRUE(Clean.clean()) << Inv << ": " << Clean.FirstFailure;

    ExplorerReport Base = runInjected(S, Reduction::None, 1,
                                      "PUSH criterion (ii)", Invariants);
    ASSERT_FALSE(Base.Truncated) << Inv;
    ASSERT_GT(Base.NonSerializable, 0u)
        << "the planted bug must produce a non-serializable terminal" << Inv;
    if (Invariants) {
      ASSERT_GT(Base.InvariantViolations, 0u)
          << "the planted bug must break an invariant";
    }

    for (Reduction Mode : AllModes) {
      for (unsigned Threads : {1u, 4u}) {
        ExplorerReport R =
            runInjected(S, Mode, Threads, "PUSH criterion (ii)", Invariants);
        std::string Tag = std::string(toString(Mode)) +
                          " / threads=" + std::to_string(Threads) + Inv;
        ASSERT_FALSE(R.Truncated) << Tag;
        // Reduction must never prune the counterexample...
        EXPECT_GT(R.NonSerializable, 0u) << Tag;
        // ...and must report it reproducibly.
        EXPECT_FALSE(R.FirstFailure.empty()) << Tag;
        // Sleep and persistent reach the exact same terminal classes, so
        // the failure *count* is preserved too; symmetry quotients it but
        // this scope's programs are distinct, so it degenerates likewise.
        EXPECT_EQ(R.NonSerializable, Base.NonSerializable) << Tag;
        EXPECT_EQ(R.InvariantViolations, Base.InvariantViolations) << Tag;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Independence relation: table-driven classification checks.
// ---------------------------------------------------------------------------

namespace {

Candidate cand(TxId Tid, FiringKind K, uint32_t A = 0, uint32_t B = 0) {
  Candidate C;
  C.F = {Tid, K, A, B};
  switch (K) {
  case FiringKind::Begin:
  case FiringKind::App:
  case FiringKind::UnApp:
  case FiringKind::UnPull:
    break;
  case FiringKind::Push:
    C.FP = {true, true, 0, false};
    break;
  case FiringKind::UnPush:
    C.FP = {true, true, 0, false};
    break;
  case FiringKind::Pull:
    C.FP = {true, false, 0, false};
    break;
  case FiringKind::Commit:
    C.FP = {true, true, 0, false};
    break;
  }
  return C;
}

Candidate pullOf(TxId Tid, uint32_t GlobalIdx, TxId Owner, bool Committed) {
  Candidate C = cand(Tid, FiringKind::Pull, GlobalIdx);
  C.FP.PullOwner = Owner;
  C.FP.PullCommitted = Committed;
  return C;
}

} // namespace

TEST(Independence, TableDrivenClassification) {
  struct Row {
    Candidate A, B;
    bool Independent;
    const char *Why;
  };
  const Row Rows[] = {
      // Same thread: always dependent, even for two local firings.
      {cand(0, FiringKind::App, 0, 0), cand(0, FiringKind::Push, 0),
       false, "same thread"},
      {cand(1, FiringKind::UnApp), cand(1, FiringKind::UnPull, 0),
       false, "same thread backward"},
      // Local firings are independent of everything cross-thread.
      {cand(0, FiringKind::App, 1, 0), cand(1, FiringKind::Push, 0),
       true, "APP is local"},
      {cand(0, FiringKind::Begin), cand(1, FiringKind::Commit),
       true, "BEGIN is local"},
      {cand(0, FiringKind::UnApp), cand(1, FiringKind::UnPush, 0),
       true, "UNAPP is local"},
      {cand(0, FiringKind::UnPull, 2), cand(1, FiringKind::Commit),
       true, "UNPULL is local"},
      {cand(0, FiringKind::App, 0, 1), cand(1, FiringKind::App, 0, 0),
       true, "two local firings"},
      // PULL refinements.
      {pullOf(0, 1, 2, false), pullOf(1, 1, 2, false),
       true, "PULL x PULL read-only on G"},
      {pullOf(0, 0, 1, false), cand(1, FiringKind::Push, 0),
       true, "PULL x PUSH: append moves nothing"},
      {pullOf(0, 0, 1, true), cand(1, FiringKind::Commit),
       true, "PULL of committed entry x CMT"},
      {pullOf(0, 0, 2, false), cand(1, FiringKind::Commit),
       true, "PULL of third party's entry x CMT"},
      {pullOf(0, 0, 1, false), cand(1, FiringKind::Commit),
       false, "PULL of committer's uncommitted entry x CMT"},
      {pullOf(0, 0, 1, false), cand(1, FiringKind::UnPush, 0),
       false, "PULL x UNPUSH: removal shifts indices"},
      // Order-sensitive G writers.
      {cand(0, FiringKind::Push, 0), cand(1, FiringKind::Push, 0),
       false, "PUSH x PUSH: G order observable"},
      {cand(0, FiringKind::Commit), cand(1, FiringKind::Commit),
       false, "CMT x CMT: commit order feeds the oracle"},
      {cand(0, FiringKind::Push, 0), cand(1, FiringKind::Commit),
       false, "PUSH x CMT"},
      {cand(0, FiringKind::UnPush, 0), cand(1, FiringKind::UnPush, 1),
       false, "UNPUSH x UNPUSH"},
  };
  for (const Row &R : Rows) {
    EXPECT_EQ(independentFirings(R.A, R.B), R.Independent) << R.Why;
    // The relation is symmetric.
    EXPECT_EQ(independentFirings(R.B, R.A), R.Independent) << R.Why;
  }
}

// ---------------------------------------------------------------------------
// Independence relation: claimed-independent pairs must actually commute.
// Fuzzed over configurations drawn from the differential fuzzer's case
// generator: random walks through machine configurations; at each stop,
// every co-enabled claimed-independent pair is executed in both orders
// and the resulting configurations compared by interned StateId.
// ---------------------------------------------------------------------------

namespace {

/// Candidate enumeration mirroring the explorer's (all pulls included):
/// independent re-implementation on the public machine API, so this test
/// exercises the relation rather than the explorer's own enumerator.
std::vector<Candidate> enumerateAll(const PushPullMachine &M, bool Backward) {
  std::vector<Candidate> Out;
  for (const ThreadState &Th : M.threads()) {
    TxId T = Th.Tid;
    if (!Th.InTx) {
      if (!Th.Pending.empty())
        Out.push_back(cand(T, FiringKind::Begin));
      continue;
    }
    for (const AppChoice &Choice : M.appChoices(T))
      for (size_t CI = 0; CI < Choice.Completions.size(); ++CI)
        Out.push_back(cand(T, FiringKind::App,
                           static_cast<uint32_t>(Choice.StepIdx),
                           static_cast<uint32_t>(CI)));
    for (size_t I : Th.L.indicesOf(LocalKind::NotPushed))
      Out.push_back(cand(T, FiringKind::Push, static_cast<uint32_t>(I)));
    for (size_t GI = 0; GI < M.global().size(); ++GI) {
      const GlobalEntry &GE = M.global()[GI];
      if (Th.L.contains(GE.Op.Id))
        continue;
      Out.push_back(pullOf(T, static_cast<uint32_t>(GI), GE.Owner,
                           GE.Kind == GlobalKind::Committed));
    }
    Out.push_back(cand(T, FiringKind::Commit));
    if (Backward) {
      Out.push_back(cand(T, FiringKind::UnApp));
      for (size_t I : Th.L.indicesOf(LocalKind::Pushed))
        Out.push_back(cand(T, FiringKind::UnPush, static_cast<uint32_t>(I)));
      for (size_t I : Th.L.indicesOf(LocalKind::Pulled))
        Out.push_back(cand(T, FiringKind::UnPull, static_cast<uint32_t>(I)));
    }
  }
  return Out;
}

/// Check the diamond for every co-enabled claimed-independent pair at M:
/// both orders must be applicable and land on the same configuration.
/// Returns the number of pairs exercised.
size_t checkDiamonds(const PushPullMachine &M, StateTable &Table,
                     bool Backward, size_t MaxPairs) {
  std::vector<Candidate> Cands = enumerateAll(M, Backward);
  size_t Checked = 0;
  for (size_t I = 0; I < Cands.size() && Checked < MaxPairs; ++I) {
    for (size_t J = I + 1; J < Cands.size() && Checked < MaxPairs; ++J) {
      if (!independentFirings(Cands[I], Cands[J]))
        continue;
      PushPullMachine AB = M;
      if (!applyFiring(AB, Cands[I].F))
        continue; // Not enabled here; nothing is claimed.
      PushPullMachine BA = M;
      if (!applyFiring(BA, Cands[J].F))
        continue;
      ++Checked;
      // Both enabled at M: independence claims each stays enabled after
      // the other and that the two orders commute.
      EXPECT_TRUE(applyFiring(AB, Cands[J].F))
          << Cands[J].F.toString() << " disabled by "
          << Cands[I].F.toString() << " at\n"
          << M.toString();
      EXPECT_TRUE(applyFiring(BA, Cands[I].F))
          << Cands[I].F.toString() << " disabled by "
          << Cands[J].F.toString() << " at\n"
          << M.toString();
      StateId KAB = Table.internState(AB.configKey());
      StateId KBA = Table.internState(BA.configKey());
      EXPECT_EQ(KAB, KBA)
          << Cands[I].F.toString() << " and " << Cands[J].F.toString()
          << " claimed independent but do not commute at\n"
          << M.toString();
    }
  }
  return Checked;
}

} // namespace

TEST(Independence, FuzzedPairsCommute) {
  GeneratorConfig GC;
  GC.Seed = 20260806;
  GC.MaxThreads = 3;
  GC.MaxTxPerThread = 1;
  GC.MaxOpsPerTx = 2;
  GC.SpecKinds = {"register", "counter", "set"};
  Generator Gen(GC);

  std::mt19937_64 Rng(7);
  size_t TotalPairs = 0;
  for (int CaseIdx = 0; CaseIdx < 18; ++CaseIdx) {
    FuzzCase C = Gen.next();
    std::string Error;
    std::shared_ptr<const SequentialSpec> Spec = C.buildSpec(Error);
    ASSERT_TRUE(Spec) << Error;
    MoverChecker Movers(*Spec);
    StateTable &Table = Spec->table();
    const bool Backward = CaseIdx % 3 == 0;

    PushPullMachine M(*Spec, Movers);
    for (const auto &P : C.Threads)
      M.addThread(P);

    // A short random walk; the diamond check runs at every stop.
    for (int Step = 0; Step < 10; ++Step) {
      TotalPairs += checkDiamonds(M, Table, Backward, /*MaxPairs=*/40);
      std::vector<Candidate> Cands = enumerateAll(M, Backward);
      if (Cands.empty())
        break;
      // Advance by a random applicable candidate.
      std::shuffle(Cands.begin(), Cands.end(), Rng);
      bool Advanced = false;
      for (const Candidate &Next : Cands) {
        PushPullMachine N = M;
        if (applyFiring(N, Next.F)) {
          M = std::move(N);
          Advanced = true;
          break;
        }
      }
      if (!Advanced)
        break;
    }
  }
  // The walk must actually have exercised the relation.
  EXPECT_GT(TotalPairs, 200u);
}

// ---------------------------------------------------------------------------
// Symmetry-group construction.
// ---------------------------------------------------------------------------

TEST(Independence, SymmetryGroupShape) {
  CodePtr A = parseOrDie("tx { c.inc(0) }");
  CodePtr B = parseOrDie("tx { c.inc(1) }");

  // Three identical programs: the full S3 (identity first).
  auto G3 = symmetryGroup({{A}, {A}, {A}});
  EXPECT_EQ(G3.size(), 6u);
  EXPECT_EQ(G3.front(), (std::vector<TxId>{0, 1, 2}));

  // Two classes {0, 2} and {1}: only the swap of the identical pair.
  auto G2 = symmetryGroup({{A}, {B}, {A}});
  EXPECT_EQ(G2.size(), 2u);
  EXPECT_EQ(G2.front(), (std::vector<TxId>{0, 1, 2}));
  EXPECT_EQ(G2.back(), (std::vector<TxId>{2, 1, 0}));

  // All distinct: trivial group.
  CodePtr C = parseOrDie("tx { c.inc(0); c.inc(1) }");
  auto G1 = symmetryGroup({{A}, {B}, {C}});
  EXPECT_EQ(G1.size(), 1u);

  // Truncation cap respected and identity kept.
  auto GCap = symmetryGroup({{A}, {A}, {A}, {A}, {A}}, /*MaxPerms=*/10);
  EXPECT_EQ(GCap.size(), 10u);
  EXPECT_EQ(GCap.front(), (std::vector<TxId>{0, 1, 2, 3, 4}));
}

// ---------------------------------------------------------------------------
// The certified commutativity table (ExplorerConfig::CommutDB): enabling
// the PUSH x PUSH refinement plus the G-order quotient must preserve
// every verdict on every mode x thread count, and the DB run's terminal
// set must be exactly the quotient image of the baseline's terminals.
// ---------------------------------------------------------------------------

namespace {

/// One DB-battery run: explorer report plus the terminal configurations,
/// each rendered through the quotient key (so baseline terminals are
/// comparable with DB-run terminals: the quotient maps both onto the
/// same canonical space).  Keys name code, history and operations by ids
/// interned in the spec's table, so runs whose terminals are compared
/// share one \p Spec.
struct DBRun {
  ExplorerReport R;
  std::vector<std::string> Terminals;
};

DBRun runScopeQuotient(const SequentialSpec &Spec, const Scope &S,
                       Reduction Mode, unsigned Threads, bool UseDB,
                       const std::string &Inject = "") {
  MoverChecker Movers(Spec);
  CommutativityDB DB(Spec);
  ExplorerConfig EC;
  EC.Reduce = Mode;
  EC.Threads = Threads;
  EC.CheckInvariants = S.Invariants;
  EC.MaxConfigs = 2000000;
  EC.MaxDepth = 64;
  EC.Machine.DisabledCriterion = Inject;
  if (UseDB)
    EC.CommutDB = &DB;
  DBRun Out;
  std::mutex Mu;
  EC.OnTerminal = [&](const PushPullMachine &M) {
    std::string Key = M.configKey(nullptr, &DB, nullptr);
    std::lock_guard<std::mutex> Lock(Mu);
    Out.Terminals.push_back(std::move(Key));
  };
  std::vector<std::vector<CodePtr>> Ps;
  for (const std::string &P : S.Programs)
    Ps.push_back({parseOrDie(P)});
  Explorer E(Spec, Movers, EC);
  Out.R = E.explore(Ps);
  std::sort(Out.Terminals.begin(), Out.Terminals.end());
  Out.Terminals.erase(
      std::unique(Out.Terminals.begin(), Out.Terminals.end()),
      Out.Terminals.end());
  return Out;
}

std::vector<Scope> commutScopes() {
  auto Cnt = [] { return std::make_unique<CounterSpec>("c", 2, 3); };
  auto Map = [] { return std::make_unique<MapSpec>("map", 2, 2); };
  auto Reg = [] { return std::make_unique<RegisterSpec>("mem", 1, 2); };
  return {
      // Distinct counters: every cross-thread PUSH pair strongly
      // commutes, the quotient merges aggressively.
      {"counter distinct", Cnt,
       {"tx { c.inc(0) }", "tx { c.inc(1) }"},
       /*Backward=*/false, /*Invariants=*/false, /*Symmetric=*/false},
      // Identical programs: composition with the symmetry quotient.
      {"counter symmetric", Cnt,
       {"tx { c.inc(0) }", "tx { c.inc(0) }"},
       /*Backward=*/false, /*Invariants=*/false, /*Symmetric=*/true},
      // The headline scope: puts to distinct keys.
      {"map distinct keys", Map,
       {"tx { a := map.put(0, 1) }", "tx { b := map.put(1, 1) }"},
       /*Backward=*/false, /*Invariants=*/false, /*Symmetric=*/false},
      // Adversarial: same-register writers never commute, the DB must
      // degenerate to the identity quotient.
      {"register conflicting writes", Reg,
       {"tx { mem.write(0, 1) }", "tx { mem.write(0, 0) }"},
       /*Backward=*/false, /*Invariants=*/false, /*Symmetric=*/false},
  };
}

} // namespace

TEST(CommutativityReduction, DBPreservesVerdictsAndTerminalQuotient) {
  for (const Scope &S : commutScopes()) {
    for (Reduction Mode : AllModes) {
      for (unsigned Threads : {1u, 4u}) {
        auto Spec = S.MakeSpec();
        DBRun Base =
            runScopeQuotient(*Spec, S, Mode, Threads, /*UseDB=*/false);
        DBRun WithDB =
            runScopeQuotient(*Spec, S, Mode, Threads, /*UseDB=*/true);
        std::string Tag = std::string(S.Name) + " / " + toString(Mode) +
                          " / threads=" + std::to_string(Threads);
        ASSERT_FALSE(Base.R.Truncated) << Tag;
        ASSERT_FALSE(WithDB.R.Truncated) << Tag;
        EXPECT_TRUE(Base.R.clean()) << Tag << ": " << Base.R.FirstFailure;
        EXPECT_TRUE(WithDB.R.clean()) << Tag << ": "
                                      << WithDB.R.FirstFailure;
        EXPECT_EQ(WithDB.R.NonSerializable, Base.R.NonSerializable) << Tag;
        EXPECT_EQ(WithDB.R.InvariantViolations,
                  Base.R.InvariantViolations)
            << Tag;
        // The quotient merges configurations, never invents them.
        EXPECT_LE(WithDB.R.ConfigsVisited, Base.R.ConfigsVisited) << Tag;
        // Terminal sets agree once both are rendered through the
        // quotient key.  (Symmetry canonicalization happens before the
        // OnTerminal hook only for the visited-map, not for the machine
        // itself, so the hook sees representative machines; outside
        // symmetry mode the comparison is exact.)
        if (Mode != Reduction::PersistentSymmetry)
          EXPECT_EQ(WithDB.Terminals, Base.Terminals) << Tag;
      }
    }
  }
}

TEST(CommutativityReduction, DBShrinksDistinctKeyMapScope) {
  Scope S{"map distinct keys",
          [] { return std::make_unique<MapSpec>("map", 2, 2); },
          {"tx { a := map.put(0, 1); b := map.put(0, 0) }",
           "tx { c := map.put(1, 1); d := map.put(1, 0) }"},
          /*Backward=*/false,
          /*Invariants=*/false,
          /*Symmetric=*/false};
  for (Reduction Mode : {Reduction::Sleep, Reduction::PersistentSymmetry}) {
    auto Spec = S.MakeSpec();
    DBRun Base = runScopeQuotient(*Spec, S, Mode, 1, /*UseDB=*/false);
    DBRun WithDB = runScopeQuotient(*Spec, S, Mode, 1, /*UseDB=*/true);
    std::string Tag = toString(Mode);
    ASSERT_FALSE(Base.R.Truncated) << Tag;
    ASSERT_FALSE(WithDB.R.Truncated) << Tag;
    EXPECT_TRUE(WithDB.R.clean()) << Tag << ": " << WithDB.R.FirstFailure;
    EXPECT_EQ(WithDB.Terminals, Base.Terminals) << Tag;
    // The acceptance floor: at least a 1.2x configuration reduction
    // (integer form: 6 * reduced <= 5 * full).
    EXPECT_LE(WithDB.R.ConfigsVisited * 6, Base.R.ConfigsVisited * 5)
        << Tag << ": DB visited " << WithDB.R.ConfigsVisited << " of "
        << Base.R.ConfigsVisited;
  }
}

TEST(CommutativityReduction, InjectedBugStillFoundWithDB) {
  // The planted PUSH criterion (ii) bug from the soundness battery, now
  // with the commutativity DB enabled on top of every mode: the
  // refinement must never prune the counterexample.  The quotient merges
  // genuinely commuting cross-thread pairs (reads, disjoint registers)
  // even on the buggy machine, so the DB runs' non-serializable COUNT is
  // compared against the DB-enabled full enumeration — the same quotient
  // space — while the raw baseline only lower-bounds detection.
  Scope S = injectedBugScope();
  auto Spec = S.MakeSpec();
  DBRun Raw = runScopeQuotient(*Spec, S, Reduction::None, 1, /*UseDB=*/false,
                               "PUSH criterion (ii)");
  DBRun Base = runScopeQuotient(*Spec, S, Reduction::None, 1, /*UseDB=*/true,
                                "PUSH criterion (ii)");
  ASSERT_FALSE(Raw.R.Truncated);
  ASSERT_FALSE(Base.R.Truncated);
  ASSERT_GT(Raw.R.NonSerializable, 0u);
  ASSERT_GT(Base.R.NonSerializable, 0u)
      << "the quotient must not merge the counterexample away";
  // Quotient-rendered terminal sets agree between the raw and DB-enabled
  // full enumerations, buggy machine included.
  EXPECT_EQ(Base.Terminals, Raw.Terminals);
  for (Reduction Mode : AllModes) {
    for (unsigned Threads : {1u, 4u}) {
      DBRun R = runScopeQuotient(*Spec, S, Mode, Threads, /*UseDB=*/true,
                                 "PUSH criterion (ii)");
      std::string Tag = std::string(toString(Mode)) +
                        " / threads=" + std::to_string(Threads);
      ASSERT_FALSE(R.R.Truncated) << Tag;
      EXPECT_GT(R.R.NonSerializable, 0u) << Tag;
      EXPECT_EQ(R.R.NonSerializable, Base.R.NonSerializable) << Tag;
      EXPECT_FALSE(R.R.FirstFailure.empty()) << Tag;
    }
  }
}

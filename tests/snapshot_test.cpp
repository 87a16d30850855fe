//===- tests/snapshot_test.cpp - CoW snapshot equivalence battery -----------===//
//
// The copy-on-write machine refactor must be *unobservable*: a machine
// copy has to behave exactly like the deep copy it replaced, under every
// interleaving of mutations on either side of the share.  This battery
// checks that three ways:
//
//  * aliasing: mutating a copy never changes what the original renders
//    (configKey, logs, committed history), and vice versa;
//  * lockstep: a machine that is re-snapshotted before every rule firing
//    (with old snapshots pinned alive, maximizing shared structure)
//    produces the identical configKey trajectory as one driven in place;
//  * state-graph goldens: explorer totals on fixed scopes — functions of
//    the interned configuration keys — equal, across reduction modes and
//    worker counts, the values the pre-CoW deep-copy machine produced
//    (recorded from the PR 3 build, same scopes, same bounds);
//
// plus an allocation-regression bound on the fixed E12 scope: visiting a
// configuration must cost O(1) chunk traffic, not a full-log copy, and
// the sequential search, which fires in place and rolls back, none.
//
//===----------------------------------------------------------------------===//

#include "sim/Explorer.h"

#include "lang/Parser.h"
#include "spec/CounterSpec.h"
#include "spec/RegisterSpec.h"
#include "support/Arena.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

using namespace pushpull;

namespace {

/// Fire one rule with a fixed deterministic policy: BEGIN the first idle
/// thread with pending work, else APP the first choice, else PUSH the
/// oldest unpushed entry, else CMT.  Returns false at quiescence.
bool stepOnce(PushPullMachine &M) {
  for (const ThreadState &Th : M.threads()) {
    TxId T = Th.Tid;
    if (!Th.InTx) {
      if (!Th.Pending.empty() && M.beginTx(T))
        return true;
      continue;
    }
    std::vector<AppChoice> Cs = M.appChoices(T);
    if (!Cs.empty() && !Cs[0].Completions.empty() &&
        M.app(T, Cs[0].StepIdx, 0).Applied)
      return true;
    size_t I = 0;
    bool Pushed = false;
    for (const LocalEntry &E : Th.L.entries()) {
      if (E.Kind == LocalKind::NotPushed && M.push(T, I).Applied) {
        Pushed = true;
        break;
      }
      ++I;
    }
    if (Pushed)
      return true;
    if (M.commit(T).Applied)
      return true;
  }
  return false;
}

std::vector<std::vector<CodePtr>> parsePrograms(
    const std::vector<std::string> &Ps) {
  std::vector<std::vector<CodePtr>> Out;
  for (const std::string &P : Ps)
    Out.push_back({parseOrDie(P)});
  return Out;
}

} // namespace

// ---------------------------------------------------------------------------
// Aliasing: a share is observationally a deep copy.
// ---------------------------------------------------------------------------

TEST(Snapshot, CopyIsObservationallyIndependent) {
  CounterSpec Spec("c", 1, 3);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  for (int I = 0; I < 3; ++I)
    M.addThread({parseOrDie("tx { c.inc(0); c.inc(0) }")});

  // Advance the original a little so logs are non-empty at the share.
  for (int I = 0; I < 4; ++I)
    ASSERT_TRUE(stepOnce(M));
  std::string KeyAtShare = M.configKey();

  PushPullMachine Copy(M);
  EXPECT_EQ(Copy.configKey(), KeyAtShare);

  // Drive the copy to quiescence; the original must not move.
  while (stepOnce(Copy))
    ;
  EXPECT_TRUE(Copy.quiescent());
  EXPECT_EQ(M.configKey(), KeyAtShare);
  EXPECT_NE(Copy.configKey(), KeyAtShare);
  EXPECT_EQ(M.committed().size(), 0u);
  EXPECT_EQ(Copy.committed().size(), 3u);

  // And the other direction: mutating the original leaves the (already
  // diverged) copy alone.
  std::string CopyKey = Copy.configKey();
  while (stepOnce(M))
    ;
  EXPECT_EQ(Copy.configKey(), CopyKey);
  // Both reached the same terminal configuration by the same policy.
  EXPECT_EQ(M.configKey(), Copy.configKey());
}

// ---------------------------------------------------------------------------
// Lockstep: snapshot-per-step equals drive-in-place, key for key.
// ---------------------------------------------------------------------------

TEST(Snapshot, SnapshottedMachineTracksInPlaceMachineKeyForKey) {
  struct Case {
    std::function<std::unique_ptr<SequentialSpec>()> MakeSpec;
    std::vector<std::string> Programs;
  };
  std::vector<Case> Cases = {
      {[] { return std::make_unique<CounterSpec>("c", 1, 3); },
       {"tx { c.inc(0); c.inc(0) }", "tx { c.inc(0) }"}},
      {[] { return std::make_unique<RegisterSpec>("mem", 1, 2); },
       {"tx { v := mem.read(0); mem.write(0, 1) }", "tx { mem.write(0, 0) }",
        "tx { w := mem.read(0) }"}},
  };
  for (size_t CI = 0; CI < Cases.size(); ++CI) {
    auto SpecA = Cases[CI].MakeSpec();
    auto SpecB = Cases[CI].MakeSpec();
    MoverChecker MoversA(*SpecA), MoversB(*SpecB);
    PushPullMachine A(*SpecA, MoversA);
    PushPullMachine B(*SpecB, MoversB);
    for (const std::string &P : Cases[CI].Programs) {
      A.addThread({parseOrDie(P)});
      B.addThread({parseOrDie(P)});
    }

    // B is re-snapshotted before every firing and every retired snapshot
    // stays pinned, so each firing works on maximally shared chunks.
    std::vector<PushPullMachine> Pinned;
    for (int Step = 0;; ++Step) {
      ASSERT_EQ(A.configKey(), B.configKey())
          << "case " << CI << " diverged at step " << Step;
      Pinned.push_back(B); // Share everything B owns.
      PushPullMachine Next(B);
      bool MovedA = stepOnce(A);
      bool MovedB = stepOnce(Next);
      ASSERT_EQ(MovedA, MovedB) << "case " << CI << " step " << Step;
      B = std::move(Next);
      if (!MovedA)
        break;
    }
    EXPECT_TRUE(A.quiescent());
    EXPECT_EQ(A.committedLog().size(), B.committedLog().size());
  }
}

// ---------------------------------------------------------------------------
// State-graph goldens: the interned key set is the deep-copy one.
// ---------------------------------------------------------------------------

TEST(Snapshot, ExplorerTotalsMatchDeepCopyGoldens) {
  // Golden totals recorded from the pre-CoW (deep-copy successor) build
  // on the same scopes with the same bounds.  ConfigsVisited and
  // TerminalConfigs are pure functions of the interned configuration
  // keys, so equality here means the CoW machine and the canonicalized
  // key assembly partition the state space identically.
  struct Golden {
    Reduction Mode;
    uint64_t Configs, Terminals, Pruned;
  };
  struct ScopeGolden {
    std::function<std::unique_ptr<SequentialSpec>()> MakeSpec;
    std::vector<std::string> Programs;
    std::vector<Golden> PerMode;
  };
  std::vector<ScopeGolden> Scopes = {
      {[] { return std::make_unique<CounterSpec>("c", 1, 3); },
       {"tx { c.inc(0) }", "tx { c.inc(0) }", "tx { c.inc(0) }"},
       {{Reduction::None, 4923, 6, 0},
        {Reduction::Sleep, 4923, 6, 5673},
        {Reduction::Persistent, 4769, 6, 5459},
        {Reduction::PersistentSymmetry, 805, 1, 1065}}},
      {[] { return std::make_unique<RegisterSpec>("mem", 1, 2); },
       {"tx { v := mem.read(0); mem.write(0, 1) }", "tx { mem.write(0, 0) }"},
       {{Reduction::None, 96, 3, 0},
        {Reduction::Sleep, 96, 3, 38},
        {Reduction::Persistent, 85, 3, 29},
        {Reduction::PersistentSymmetry, 85, 3, 29}}},
  };
  for (size_t SI = 0; SI < Scopes.size(); ++SI) {
    for (const Golden &G : Scopes[SI].PerMode) {
      for (unsigned Threads : {1u, 4u}) {
        auto Spec = Scopes[SI].MakeSpec();
        MoverChecker Movers(*Spec);
        ExplorerConfig EC;
        EC.Reduce = G.Mode;
        EC.Threads = Threads;
        Explorer E(*Spec, Movers, EC);
        ExplorerReport R = E.explore(parsePrograms(Scopes[SI].Programs));
        std::string Tag = "scope " + std::to_string(SI) + " / " +
                          toString(G.Mode) +
                          " / threads=" + std::to_string(Threads);
        ASSERT_FALSE(R.Truncated) << Tag;
        EXPECT_EQ(R.ConfigsVisited, G.Configs) << Tag;
        EXPECT_EQ(R.TerminalConfigs, G.Terminals) << Tag;
        EXPECT_TRUE(R.clean()) << Tag << ": " << R.FirstFailure;
        // Work counters are deterministic only sequentially.
        if (Threads == 1) {
          EXPECT_EQ(R.FiringsPruned, G.Pruned) << Tag;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Allocation regression: visiting a configuration is O(1) chunk traffic.
// ---------------------------------------------------------------------------

TEST(Snapshot, AllocationBoundsOnE12Scope) {
  std::vector<std::vector<CodePtr>> Programs = parsePrograms(
      {"tx { c.inc(0) }", "tx { c.inc(0) }", "tx { c.inc(0) }"});
  auto Run = [&](unsigned Threads, ExplorerReport &R) {
    CounterSpec Spec("c", 1, 3);
    MoverChecker Movers(Spec);
    ExplorerConfig EC;
    EC.Reduce = Reduction::None;
    EC.Threads = Threads;
    Explorer E(Spec, Movers, EC);
    memstats::Snapshot Before = memstats::read();
    R = E.explore(Programs);
    return memstats::read().delta(Before);
  };

  // The sequential search fires every successor in place and rolls it
  // back, so it copies no machine, and the chains it owns outright are
  // written in place.  The measured values on this scope are 0 deep
  // copies and ~125 B of fresh chunks per configuration; the bounds leave
  // slack for layout drift but would catch any return to copying
  // successors (~1.9 deep copies and ~4.9 KiB per configuration).
  ExplorerReport R;
  memstats::Snapshot D = Run(1, R);
  ASSERT_EQ(R.ConfigsVisited, 4923u);
  double PerConfigDeep =
      static_cast<double>(D.DeepCopies) / static_cast<double>(R.ConfigsVisited);
  double PerConfigBytes = static_cast<double>(D.SnapshotBytes) /
                          static_cast<double>(R.ConfigsVisited);
  EXPECT_EQ(D.MachineCopies, 0u);
  EXPECT_LT(PerConfigDeep, 0.05);
  EXPECT_LT(PerConfigBytes, 512.0);

  // The worker pool hands each successor to its queue as a machine copy,
  // so there the sharing machinery is exercised.
  ExplorerReport RP;
  memstats::Snapshot DP = Run(4, RP);
  ASSERT_EQ(RP.ConfigsVisited, 4923u);
  EXPECT_GT(DP.MachineCopies, RP.ConfigsVisited / 2);
  EXPECT_GT(DP.ChunkShares, DP.DeepCopies);
}

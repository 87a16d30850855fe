//===- tests/interning_test.cpp - Hash-consing and transition memo ----------===//
//
// The interning layer (StateTable) is representation only: dense ids must
// mirror canonical-value equality exactly, and the memoized denotation
// must agree with a from-scratch fold of SequentialSpec::successors on
// every log.  These tests pin that contract across all seven specs, and
// under threads sharing one table through their per-thread read caches.
//
//===----------------------------------------------------------------------===//

#include "core/Spec.h"

#include "spec/BankSpec.h"
#include "spec/CompositeSpec.h"
#include "spec/CounterSpec.h"
#include "spec/MapSpec.h"
#include "spec/QueueSpec.h"
#include "spec/RegisterSpec.h"
#include "spec/SetSpec.h"

#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <random>
#include <thread>
#include <vector>

using namespace pushpull;

namespace {

/// [[Log]] computed with no interning, no memo, no StateSet machinery on
/// the way: a plain fold of successors() over plain state vectors.
StateSet uncachedDenote(const SequentialSpec &S,
                        const std::vector<Operation> &Log) {
  StateSet Cur = StateSet::of(S.initialStates());
  for (const Operation &Op : Log) {
    std::vector<State> Next;
    for (const State &St : Cur.states())
      for (State &N : S.successors(St, Op))
        Next.push_back(std::move(N));
    Cur = StateSet::of(std::move(Next));
    if (Cur.empty())
      break;
  }
  return Cur;
}

/// All seven specifications, each with a small but nontrivial scope.
std::vector<std::shared_ptr<const SequentialSpec>> allSpecs() {
  std::vector<std::shared_ptr<const SequentialSpec>> Out;
  Out.push_back(std::make_shared<RegisterSpec>("mem", 2, 2));
  Out.push_back(std::make_shared<CounterSpec>("ctr", 2, 3));
  Out.push_back(std::make_shared<SetSpec>("set", 3));
  Out.push_back(std::make_shared<MapSpec>("map", 2, 2));
  Out.push_back(std::make_shared<QueueSpec>("q", 2, 2));
  Out.push_back(std::make_shared<BankSpec>("bank", 2, 2, 1));
  auto Comp = std::make_shared<CompositeSpec>();
  Comp->add("mem", std::make_shared<RegisterSpec>("mem", 1, 2));
  Comp->add("ctr", std::make_shared<CounterSpec>("ctr", 1, 2));
  Out.push_back(Comp);
  return Out;
}

} // namespace

TEST(Interning, StateIdsAreHashConsed) {
  RegisterSpec Spec("mem", 1, 2);
  StateTable &T = Spec.table();
  StateId A = T.internState("s0");
  StateId B = T.internState("s1");
  EXPECT_NE(A, B);
  EXPECT_EQ(T.internState("s0"), A);
  EXPECT_EQ(T.internState("s1"), B);
}

TEST(Interning, EmptySetIsAlwaysIdZero) {
  RegisterSpec Spec("mem", 1, 2);
  EXPECT_EQ(Spec.internSet(StateSet()), StateTable::EmptySetId);
  EXPECT_TRUE(Spec.setOf(StateTable::EmptySetId).empty());
}

TEST(Interning, SetIdEqualityIffSetEquality) {
  RegisterSpec Spec("mem", 1, 2);
  // Random subsets of a small state pool: for every pair, id equality
  // must coincide with canonical set equality.
  std::vector<State> Pool = {"a", "b", "c", "d", "e"};
  std::mt19937 Rng(7);
  std::vector<StateSet> Sets;
  std::vector<StateSetId> Ids;
  for (int I = 0; I < 64; ++I) {
    std::vector<State> Pick;
    for (const State &S : Pool)
      if (Rng() & 1)
        Pick.push_back(S);
    StateSet Set = StateSet::of(Pick);
    Ids.push_back(Spec.internSet(Set));
    Sets.push_back(std::move(Set));
  }
  for (size_t I = 0; I < Sets.size(); ++I)
    for (size_t J = 0; J < Sets.size(); ++J)
      EXPECT_EQ(Ids[I] == Ids[J], Sets[I] == Sets[J])
          << Sets[I].toString() << " vs " << Sets[J].toString();
}

TEST(Interning, SetOfRoundTripsCanonicalSet) {
  SetSpec Spec("set", 3);
  StateSet Init = Spec.initial();
  StateSetId Id = Spec.internSet(Init);
  EXPECT_EQ(Spec.setOf(Id), Init);
}

TEST(Interning, OpKeysDependOnCallAndResultOnly) {
  RegisterSpec Spec("mem", 1, 2);
  StateTable &T = Spec.table();

  Operation A;
  A.Call = {"mem", "read", {0}};
  A.Result = 1;
  A.Id = 3;
  Operation B = A;
  B.Id = 99; // Different op instance, same (Call, Result).
  EXPECT_EQ(T.opKey(A), T.opKey(B));

  // The key cache follows (Call, Result) through copies; mutating either
  // field afterwards requires a reset() (the Op.h contract).
  Operation C = A;
  C.Result = 0; // Same call, different result: a different denotation.
  C.KeyCache.reset();
  EXPECT_NE(T.opKey(A), T.opKey(C));

  Operation D = A;
  D.Call.Args = {1};
  D.KeyCache.reset();
  EXPECT_NE(T.opKey(A), T.opKey(D));
}

TEST(Interning, MemoizedDenotationMatchesUncachedFold) {
  // Randomized logs over the probe alphabet of each of the seven specs:
  // the interned, memoized route (denote / denoteId) must produce exactly
  // the canonical set of the from-scratch successors() fold.
  for (const auto &Spec : allSpecs()) {
    std::vector<Operation> Probes = Spec->probeOps();
    ASSERT_FALSE(Probes.empty()) << Spec->name();
    std::mt19937 Rng(42);
    std::uniform_int_distribution<size_t> PickOp(0, Probes.size() - 1);
    std::uniform_int_distribution<size_t> PickLen(0, 6);
    for (int Trial = 0; Trial < 40; ++Trial) {
      std::vector<Operation> Log;
      size_t Len = PickLen(Rng);
      for (size_t I = 0; I < Len; ++I)
        Log.push_back(Probes[PickOp(Rng)]);

      StateSet Slow = uncachedDenote(*Spec, Log);
      StateSet ViaMemo = Spec->denote(Log);
      EXPECT_EQ(ViaMemo, Slow)
          << Spec->name() << " trial " << Trial << ": memoized denotation "
          << ViaMemo.toString() << " != uncached " << Slow.toString();

      StateSetId Id = Spec->denoteId(Log);
      EXPECT_EQ(Spec->setOf(Id), Slow) << Spec->name() << " (interned route)";
      EXPECT_EQ(Id == StateTable::EmptySetId, Slow.empty()) << Spec->name();
    }
  }
}

TEST(Interning, RepeatedDenotationIsServedFromTheMemo) {
  CounterSpec Spec("ctr", 1, 4);
  std::vector<Operation> Probes = Spec.probeOps();
  std::vector<Operation> Log = {Probes[0], Probes[1 % Probes.size()],
                                Probes[0]};
  StateSet First = Spec.denote(Log);
  InternStats Before = Spec.internStats();
  StateSet Second = Spec.denote(Log);
  InternStats After = Spec.internStats();
  EXPECT_EQ(First, Second);
  EXPECT_EQ(After.TransitionMemoMisses, Before.TransitionMemoMisses)
      << "second identical denotation must not recompute any transition";
  EXPECT_GT(After.TransitionMemoHits, Before.TransitionMemoHits);
}

// -- Under threads -----------------------------------------------------------

TEST(Interning, ConcurrentDenotationMatchesPrivateFoldsAndCountsExactly) {
  // Four threads denote seeded random logs on one shared instance of each
  // spec.  Every result, read back through setOf, must equal the
  // from-scratch fold on the thread's own private instance, and the
  // shared memo's hits plus misses must equal the lookups made: one per
  // applyOpId on a non-empty set.
  constexpr unsigned Threads = 4;
  constexpr int LogsPerSpec = 150;
  const std::vector<std::shared_ptr<const SequentialSpec>> Shared =
      allSpecs();
  std::vector<std::vector<uint64_t>> Lookups(
      Threads, std::vector<uint64_t>(Shared.size(), 0));
  std::vector<std::vector<std::string>> Mismatches(Threads);

  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&Shared, &Lookups, &Mismatches, T] {
      const std::vector<std::shared_ptr<const SequentialSpec>> Private =
          allSpecs();
      std::mt19937 Rng(20261017 + T);
      for (size_t K = 0; K < Shared.size(); ++K) {
        std::vector<Operation> Probes = Private[K]->probeOps();
        std::uniform_int_distribution<size_t> PickOp(0, Probes.size() - 1);
        std::uniform_int_distribution<size_t> PickLen(0, 8);
        for (int Trial = 0; Trial < LogsPerSpec; ++Trial) {
          std::vector<Operation> Log;
          size_t Len = PickLen(Rng);
          for (size_t I = 0; I < Len; ++I)
            Log.push_back(Probes[PickOp(Rng)]);

          StateSetId S = Shared[K]->initialId();
          for (const Operation &Op : Log) {
            if (S == StateTable::EmptySetId)
              break;
            S = Shared[K]->applyOpId(S, Op);
            ++Lookups[T][K];
          }
          StateSet Want = uncachedDenote(*Private[K], Log);
          if (Shared[K]->setOf(S) != Want)
            Mismatches[T].push_back(Shared[K]->name() + " trial " +
                                    std::to_string(Trial) + ": " +
                                    Shared[K]->setOf(S).toString() +
                                    " != " + Want.toString());
        }
      }
    });
  for (std::thread &T : Ts)
    T.join();

  for (unsigned T = 0; T < Threads; ++T)
    for (const std::string &M : Mismatches[T])
      ADD_FAILURE() << "thread " << T << ", " << M;
  for (size_t K = 0; K < Shared.size(); ++K) {
    uint64_t Made = 0;
    for (unsigned T = 0; T < Threads; ++T)
      Made += Lookups[T][K];
    InternStats St = Shared[K]->internStats();
    EXPECT_EQ(St.TransitionMemoHits + St.TransitionMemoMisses, Made)
        << Shared[K]->name();
    EXPECT_GT(St.TransitionMemoHits, 0u) << Shared[K]->name();
  }
}

TEST(Interning, NewTableNeverSeesADestroyedTablesCachedEntries) {
  // Ids are dense per table, so a table built after another one dies
  // reuses the same (set id, op key) numbers with other meanings, and
  // they land in the same per-thread cache slots.  Warm this thread's
  // cache from one table, destroy it, and read the same numbers from the
  // next: only the new table's own entries may come back.
  for (int Round = 0; Round < 16; ++Round) {
    std::vector<Operation> OldProbes;
    {
      CounterSpec Old("ctr", 1, 4);
      OldProbes = Old.probeOps();
      for (const Operation &Op : OldProbes)
        (void)Old.setOf(Old.applyOpId(Old.initialId(), Op));
    }
    RegisterSpec Fresh("mem", 1, 2);
    StateTable &T = Fresh.table();
    StateSetId Init = Fresh.initialId();
    for (const Operation &Op : OldProbes) {
      StateSetId Out;
      EXPECT_FALSE(T.lookupTransition(Init, T.opKey(Op), Out))
          << "round " << Round << ": a new table hit a transition of a "
          << "destroyed one";
    }
    EXPECT_EQ(Fresh.setOf(Init), Fresh.initial()) << "round " << Round;
    for (const Operation &Op : Fresh.probeOps())
      EXPECT_EQ(Fresh.setOf(Fresh.applyOpId(Init, Op)),
                uncachedDenote(Fresh, {Op}))
          << "round " << Round << ": " << Op.toString();
  }
}

TEST(Interning, RacingFirstUseBuildsOneProbeAlphabet) {
  // Four threads race on the first probes()/probeKeys() of one fresh spec:
  // all must get the same vectors, and the keys must be the ones a
  // sequential opKey over probeOps() interns.
  constexpr unsigned Threads = 4;
  MapSpec Spec("map", 2, 2);
  std::vector<const std::vector<Operation> *> Ops(Threads);
  std::vector<const std::vector<OpKeyId> *> Keys(Threads);
  std::latch Start(Threads);
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      Start.arrive_and_wait();
      if (T % 2) {
        Keys[T] = &Spec.probeKeys();
        Ops[T] = &Spec.probes();
      } else {
        Ops[T] = &Spec.probes();
        Keys[T] = &Spec.probeKeys();
      }
    });
  for (std::thread &T : Ts)
    T.join();

  for (unsigned T = 1; T < Threads; ++T) {
    EXPECT_EQ(Ops[T], Ops[0]) << "thread " << T;
    EXPECT_EQ(Keys[T], Keys[0]) << "thread " << T;
  }
  std::vector<Operation> Want = Spec.probeOps();
  ASSERT_EQ(Ops[0]->size(), Want.size());
  ASSERT_EQ(Keys[0]->size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I) {
    EXPECT_EQ((*Ops[0])[I].toString(), Want[I].toString()) << I;
    EXPECT_EQ((*Keys[0])[I], Spec.table().opKey(Want[I])) << I;
  }
}

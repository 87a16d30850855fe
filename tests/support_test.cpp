//===- tests/support_test.cpp - Tri / Rng / Str unit tests ------------------===//

#include "support/Rng.h"
#include "support/Str.h"
#include "support/Tri.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

using namespace pushpull;

TEST(Tri, AndTruthTable) {
  EXPECT_EQ(triAnd(Tri::Yes, Tri::Yes), Tri::Yes);
  EXPECT_EQ(triAnd(Tri::Yes, Tri::No), Tri::No);
  EXPECT_EQ(triAnd(Tri::No, Tri::Yes), Tri::No);
  EXPECT_EQ(triAnd(Tri::No, Tri::No), Tri::No);
  EXPECT_EQ(triAnd(Tri::Yes, Tri::Unknown), Tri::Unknown);
  EXPECT_EQ(triAnd(Tri::Unknown, Tri::Yes), Tri::Unknown);
  EXPECT_EQ(triAnd(Tri::No, Tri::Unknown), Tri::No);
  EXPECT_EQ(triAnd(Tri::Unknown, Tri::No), Tri::No);
  EXPECT_EQ(triAnd(Tri::Unknown, Tri::Unknown), Tri::Unknown);
}

TEST(Tri, OrTruthTable) {
  EXPECT_EQ(triOr(Tri::No, Tri::No), Tri::No);
  EXPECT_EQ(triOr(Tri::No, Tri::Yes), Tri::Yes);
  EXPECT_EQ(triOr(Tri::Unknown, Tri::Yes), Tri::Yes);
  EXPECT_EQ(triOr(Tri::Unknown, Tri::No), Tri::Unknown);
  EXPECT_EQ(triOr(Tri::Unknown, Tri::Unknown), Tri::Unknown);
}

TEST(Tri, NotInvolutiveOnDefinite) {
  EXPECT_EQ(triNot(Tri::Yes), Tri::No);
  EXPECT_EQ(triNot(Tri::No), Tri::Yes);
  EXPECT_EQ(triNot(Tri::Unknown), Tri::Unknown);
}

TEST(Tri, Predicates) {
  EXPECT_TRUE(definitely(Tri::Yes));
  EXPECT_FALSE(definitely(Tri::Unknown));
  EXPECT_FALSE(definitely(Tri::No));
  EXPECT_TRUE(possibly(Tri::Yes));
  EXPECT_TRUE(possibly(Tri::Unknown));
  EXPECT_FALSE(possibly(Tri::No));
  EXPECT_EQ(triOf(true), Tri::Yes);
  EXPECT_EQ(triOf(false), Tri::No);
}

TEST(Tri, ToString) {
  EXPECT_EQ(toString(Tri::Yes), "yes");
  EXPECT_EQ(toString(Tri::No), "no");
  EXPECT_EQ(toString(Tri::Unknown), "unknown");
}

TEST(Rng, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  bool AnyDiff = false;
  for (int I = 0; I < 10; ++I)
    AnyDiff |= A.next() != B.next();
  EXPECT_TRUE(AnyDiff);
}

TEST(Rng, BelowInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.below(13), 13u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng R(7);
  std::map<uint64_t, int> Seen;
  for (int I = 0; I < 2000; ++I)
    ++Seen[R.below(5)];
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(Rng, RangeInclusive) {
  Rng R(3);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.range(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    SawLo |= V == -2;
    SawHi |= V == 2;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, ChanceExtremes) {
  Rng R(9);
  for (int I = 0; I < 100; ++I) {
    EXPECT_TRUE(R.chance(100, 100));
    EXPECT_FALSE(R.chance(0, 100));
  }
}

TEST(Rng, ZipfUniformWhenThetaZero) {
  Rng R(11);
  std::map<uint64_t, int> Seen;
  for (int I = 0; I < 3000; ++I)
    ++Seen[R.zipf(6, 0)];
  EXPECT_EQ(Seen.size(), 6u);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng R(13);
  int Low = 0, High = 0;
  for (int I = 0; I < 5000; ++I) {
    uint64_t V = R.zipf(16, 150);
    if (V < 2)
      ++Low;
    if (V >= 14)
      ++High;
  }
  EXPECT_GT(Low, High * 3);
}

TEST(Rng, ZipfStaysInDomain) {
  Rng R(17);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.zipf(7, 99), 7u);
}

TEST(Rng, ShufflePermutes) {
  Rng R(19);
  std::vector<int> V = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Orig = V;
  R.shuffle(V);
  std::vector<int> Sorted = V;
  std::sort(Sorted.begin(), Sorted.end());
  EXPECT_EQ(Sorted, Orig);
}

TEST(Rng, SplitIndependentStreams) {
  Rng A(23);
  Rng B = A.split();
  EXPECT_NE(A.next(), B.next());
}

TEST(Str, Join) {
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"a"}, ","), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(Str, StartsWith) {
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_TRUE(startsWith("foo", ""));
  EXPECT_FALSE(startsWith("fo", "foo"));
  EXPECT_FALSE(startsWith("xfoo", "foo"));
}

TEST(Str, SplitOn) {
  EXPECT_EQ(splitOn("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(splitOn("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(splitOn("a,", ','), (std::vector<std::string>{"a", ""}));
  EXPECT_EQ(splitOn(",a", ','), (std::vector<std::string>{"", "a"}));
}

TEST(Str, ReadWholeTakesOnlyDigitsInRange) {
  uint64_t V = 7;
  EXPECT_TRUE(readWhole("0", 0, 10, V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(readWhole("18446744073709551615", 0, UINT64_MAX, V));
  EXPECT_EQ(V, UINT64_MAX);
  EXPECT_TRUE(readWhole("0064", 1, 64, V));
  EXPECT_EQ(V, 64u);
  V = 7;
  for (const char *Bad : {"", "x", "5x", "-1", "+1", " 1", "1 ", "1.0", "0x1",
                          "65", "18446744073709551616",
                          "99999999999999999999999"})
    EXPECT_FALSE(readWhole(Bad, 1, 64, V)) << Bad;
  EXPECT_FALSE(readWhole("0", 1, 64, V));
  EXPECT_FALSE(readWhole("5", 0, 0, V));
  EXPECT_EQ(V, 7u) << "a refused number leaves the output alone";
  EXPECT_EQ(wholeNumberError("keys", 1, 64, "x"),
            "keys needs a whole number from 1 to 64, got 'x'");
}

//===----------------------------------------------------------------------===//
// Arena / SmallVec / CowChain / CowVec — the snapshot layer's primitives.
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/Cow.h"
#include "support/SmallVec.h"

#if defined(__SANITIZE_ADDRESS__)
#define PUSHPULL_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PUSHPULL_TEST_ASAN 1
#endif
#endif

#include <latch>
#include <string>
#include <thread>
#include <vector>

TEST(Arena, AllocatesAlignedAndCounts) {
  Arena A;
  EXPECT_EQ(A.allocated(), 0u);
  auto *P = static_cast<char *>(A.allocate(13, 1));
  ASSERT_NE(P, nullptr);
  auto *Q = A.allocateArray<uint64_t>(4);
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Q) % alignof(uint64_t), 0u);
  Q[0] = 1;
  Q[3] = 4;
  EXPECT_GE(A.allocated(), 13u + 4 * sizeof(uint64_t));
}

TEST(Arena, ScopeRewindReusesMemory) {
  Arena A;
  void *First = nullptr;
  {
    Arena::Scope S(A);
    First = A.allocate(64, 8);
  }
  void *Second = nullptr;
  {
    Arena::Scope S(A);
    Second = A.allocate(64, 8);
  }
  // After a rewind the bump pointer is back where it was, so the same
  // block satisfies the same-size request at the same address.  Under
  // AddressSanitizer the arena intentionally degrades to one heap
  // object per allocation (so poisoning catches stale references) and
  // reuse is not guaranteed — only assert it for the real allocator.
#ifndef PUSHPULL_TEST_ASAN
  EXPECT_EQ(First, Second);
#else
  (void)First;
  EXPECT_NE(Second, nullptr);
#endif
}

TEST(Arena, NestedScopesRewindToTheirOwnMarks) {
  Arena A;
  A.allocate(32, 8);
  Arena::Mark Outer = A.mark();
  A.allocate(1 << 12, 8);
  {
    Arena::Scope S(A);
    // Force block growth inside the scope.
    for (int I = 0; I < 64; ++I)
      A.allocate(1 << 12, 8);
  }
  void *P = A.allocate(16, 8);
  ASSERT_NE(P, nullptr);
  A.rewind(Outer);
  // The arena is usable after rewinding across freed blocks.
  EXPECT_NE(A.allocate(64, 8), nullptr);
}

TEST(ArenaVec, GrowsWithinScope) {
  Arena A;
  Arena::Scope S(A);
  ArenaVec<int> V(A);
  for (int I = 0; I < 100; ++I)
    V.push_back(I);
  ASSERT_EQ(V.size(), 100u);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(V[I], I);
  V.truncate(3);
  EXPECT_EQ(V.size(), 3u);
  EXPECT_EQ(V[2], 2);
}

TEST(SmallVec, StaysInlineUpToN) {
  SmallVec<int, 4> V;
  const void *InlineAddr = V.begin();
  for (int I = 0; I < 4; ++I)
    V.push_back(I);
  EXPECT_EQ(static_cast<const void *>(V.begin()), InlineAddr);
  V.push_back(4); // Spills to the heap.
  EXPECT_NE(static_cast<const void *>(V.begin()), InlineAddr);
  for (int I = 0; I < 5; ++I)
    EXPECT_EQ(V[I], I);
}

TEST(SmallVec, CopyAndMovePreserveElements) {
  SmallVec<std::string, 2> V;
  V.push_back("a");
  V.push_back("b");
  V.push_back("c"); // heap
  SmallVec<std::string, 2> C(V);
  EXPECT_EQ(C, V);
  SmallVec<std::string, 2> M(std::move(V));
  EXPECT_EQ(M, C);
  EXPECT_TRUE(V.empty());
  M.erase(M.begin() + 1);
  ASSERT_EQ(M.size(), 2u);
  EXPECT_EQ(M[0], "a");
  EXPECT_EQ(M[1], "c");
  M.insert(M.begin() + 1, "b");
  EXPECT_EQ(M, C);
}

TEST(CowChain, SharingIsObservationallyImmutable) {
  CowChain<int, 4> A;
  for (int I = 0; I < 10; ++I)
    A.push(I);
  CowChain<int, 4> B(A); // O(1) share.
  B.push(10);
  B.mutableAt(0) = 99; // Clones the shared path, not A's chunks.
  ASSERT_EQ(A.size(), 10u);
  ASSERT_EQ(B.size(), 11u);
  EXPECT_EQ(A[0], 0);
  EXPECT_EQ(B[0], 99);
  for (int I = 1; I < 10; ++I) {
    EXPECT_EQ(A[I], I);
    EXPECT_EQ(B[I], I);
  }
  EXPECT_EQ(B[10], 10);
}

TEST(CowChain, CopyBumpsSharesNotBytes) {
  memstats::Snapshot Before = memstats::read();
  CowChain<int, 8> A;
  for (int I = 0; I < 64; ++I)
    A.push(I);
  uint64_t BytesAfterBuild = memstats::read().SnapshotBytes;
  CowChain<int, 8> B(A);
  CowChain<int, 8> C(B);
  memstats::Snapshot After = memstats::read();
  EXPECT_EQ(After.SnapshotBytes, BytesAfterBuild); // Shares allocate nothing.
  EXPECT_EQ(After.delta(Before).ChunkShares, 2u);
  EXPECT_EQ(C[63], 63);
}

TEST(CowChain, TruncateIsByViewAndAppendDiverges) {
  CowChain<int, 4> A;
  for (int I = 0; I < 6; ++I)
    A.push(I);
  CowChain<int, 4> B(A);
  B.truncate(2);
  B.push(77); // Writes into a fresh head, never A's shared chunk.
  ASSERT_EQ(A.size(), 6u);
  for (int I = 0; I < 6; ++I)
    EXPECT_EQ(A[I], I);
  ASSERT_EQ(B.size(), 3u);
  EXPECT_EQ(B[0], 0);
  EXPECT_EQ(B[1], 1);
  EXPECT_EQ(B[2], 77);
}

TEST(CowChain, UniqueOwnerAppendsInPlace) {
  CowChain<int, 4> A;
  A.push(0);
  memstats::Snapshot Before = memstats::read();
  A.push(1);
  A.push(2);
  A.push(3); // Fills the head chunk: no new chunk, no share, no clone.
  memstats::Snapshot D = memstats::read().delta(Before);
  EXPECT_EQ(D.SnapshotBytes, 0u);
  EXPECT_EQ(D.ChunkShares, 0u);
  EXPECT_EQ(D.DeepCopies, 0u);
  EXPECT_EQ(A.size(), 4u);
}

TEST(CowChain, RemoveAtReindexesNewerChunks) {
  CowChain<int, 2> A;
  for (int I = 0; I < 7; ++I)
    A.push(I);
  CowChain<int, 2> B(A);
  B.removeAt(1);
  ASSERT_EQ(B.size(), 6u);
  int Expect[] = {0, 2, 3, 4, 5, 6};
  size_t K = 0;
  for (int V : B)
    EXPECT_EQ(V, Expect[K++]);
  EXPECT_EQ(K, 6u);
  // A is untouched.
  ASSERT_EQ(A.size(), 7u);
  for (int I = 0; I < 7; ++I)
    EXPECT_EQ(A[I], I);
}

TEST(CowChain, InsertAtInvertsRemoveAtSharedOrNot) {
  // Every position of chains that fill their chunks exactly, partly, and
  // across fragmented heads, with the chain shared or uniquely owned: an
  // insert of the removed entry restores the chain, and a copy taken
  // before either mutation never changes.
  for (int N : {1, 2, 3, 4, 5, 8, 9}) {
    for (int At = 0; At < N; ++At) {
      for (bool Shared : {false, true}) {
        CowChain<int, 4> A;
        for (int I = 0; I < N; ++I)
          A.push(I);
        CowChain<int, 4> Pin;
        if (Shared)
          Pin = A;
        int Removed = A[At];
        A.removeAt(At);
        A.insertAt(At, Removed);
        ASSERT_EQ(A.size(), static_cast<size_t>(N));
        int Want = 0;
        for (int V : A)
          EXPECT_EQ(V, Want++) << N << " @" << At << " shared=" << Shared;
        for (int I = 0; I < N; ++I)
          EXPECT_EQ(A[I], I);
        for (int I = 0; Shared && I < N; ++I)
          EXPECT_EQ(Pin[I], I);
      }
    }
  }
}

TEST(CowChain, InsertAtSplitsAFullChunk) {
  CowChain<int, 2> A;
  for (int I = 0; I < 6; ++I)
    if (I != 2)
      A.push(I);
  // Chunks [0 1] [3 4] [5]: index 2 is the first slot of the full middle
  // chunk, which splits into [2] [3 4].
  A.insertAt(2, 2);
  A.push(6);
  ASSERT_EQ(A.size(), 7u);
  int Want = 0;
  for (int V : A)
    EXPECT_EQ(V, Want++);
  for (int I = 0; I < 7; ++I)
    EXPECT_EQ(A[I], I);
}

TEST(CowChain, IteratorSweepsFragmentedChains) {
  // Build a maximally fragmented chain: every append lands after a share,
  // so every entry opens its own head chunk.
  CowChain<int, 4> A;
  for (int I = 0; I < 200; ++I) {
    CowChain<int, 4> Pin(A); // Keeps the head shared.
    A.push(I);
  }
  int Want = 0;
  for (int V : A)
    EXPECT_EQ(V, Want++);
  EXPECT_EQ(Want, 200);
}

TEST(CowVec, SharesUntilMutation) {
  CowVec<int> A;
  A.push_back(1);
  A.push_back(2);
  CowVec<int> B(A);
  EXPECT_EQ(&A.view(), &B.view()); // Same representation while shared.
  B.push_back(3);
  EXPECT_NE(&A.view(), &B.view());
  EXPECT_EQ(A.size(), 2u);
  ASSERT_EQ(B.size(), 3u);
  EXPECT_EQ(B[2], 3);
  B.insertFront(0);
  EXPECT_EQ(B.front(), 0);
  B.eraseFront();
  EXPECT_EQ(B.front(), 1);
}

TEST(CowVec, PopBackLeavesSharersAlone) {
  CowVec<int> A;
  A.push_back(1);
  A.push_back(2);
  CowVec<int> B(A);
  B.pop_back(); // Clones: A still holds both.
  ASSERT_EQ(A.size(), 2u);
  EXPECT_EQ(A[1], 2);
  ASSERT_EQ(B.size(), 1u);
  EXPECT_EQ(B[0], 1);
  A.pop_back(); // Sole owner again: in place.
  EXPECT_EQ(A.size(), 1u);
}

TEST(ChunkPool, ConcurrentRefillsReuseReturnedChunks) {
  // Batches of threads that all hold chunks of one class at once.  Each
  // thread's chunks go back to the pool when it exits, so once the first
  // batch has carved what a batch needs, later batches must be served
  // from returned chunks without drawing new slabs.
#ifdef PUSHPULL_TEST_ASAN
  GTEST_SKIP() << "chunks are plain heap objects under AddressSanitizer";
#else
  constexpr size_t Bytes = 256;
  constexpr unsigned Threads = 4, PerThread = 64, Batches = 6;
  auto RunBatch = [] {
    std::latch Holding(Threads);
    std::vector<std::thread> Ts;
    for (unsigned T = 0; T < Threads; ++T)
      Ts.emplace_back([&Holding] {
        std::vector<void *> Mine;
        for (unsigned I = 0; I < PerThread; ++I)
          Mine.push_back(chunkAlloc(Bytes));
        // Nobody frees until every thread holds its chunks.
        Holding.arrive_and_wait();
        for (void *P : Mine)
          chunkFree(P, Bytes);
      });
    for (std::thread &T : Ts)
      T.join();
  };
  RunBatch();
  const uint64_t AfterFirst = memstats::read().ArenaBytes;
  for (unsigned B = 1; B < Batches; ++B) {
    RunBatch();
    EXPECT_EQ(memstats::read().ArenaBytes, AfterFirst)
        << "batch " << B << " carved new slabs";
  }
#endif
}

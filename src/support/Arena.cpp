//===- support/Arena.cpp - Bump-pointer arena and memory counters ----------===//

#include "support/Arena.h"

#include <cassert>
#include <cstdlib>
#include <mutex>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define PUSHPULL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PUSHPULL_ASAN 1
#endif
#endif

using namespace pushpull;

namespace pushpull::memstats {
std::atomic<uint64_t> SnapshotBytes{0};
std::atomic<uint64_t> ChunkShares{0};
std::atomic<uint64_t> DeepCopies{0};
std::atomic<uint64_t> MachineCopies{0};
std::atomic<uint64_t> ArenaBytes{0};

Snapshot read() {
  Snapshot S;
  S.SnapshotBytes = SnapshotBytes.load(std::memory_order_relaxed);
  S.ChunkShares = ChunkShares.load(std::memory_order_relaxed);
  S.DeepCopies = DeepCopies.load(std::memory_order_relaxed);
  S.MachineCopies = MachineCopies.load(std::memory_order_relaxed);
  S.ArenaBytes = ArenaBytes.load(std::memory_order_relaxed);
  return S;
}
} // namespace pushpull::memstats

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

struct Arena::Block {
  Block *Prev;
  size_t Size; ///< Payload bytes.
};

static constexpr size_t FirstBlockBytes = 4096;
static constexpr size_t MaxBlockBytes = 256 * 1024;

namespace {
inline unsigned char *blockPayload(void *B) {
  return reinterpret_cast<unsigned char *>(B) + sizeof(Arena::Block);
}
} // namespace

struct Arena::Block *Arena::newBlock(size_t MinBytes) {
  size_t Payload = Current ? static_cast<Block *>(Current)->Size * 2
                           : FirstBlockBytes;
  if (Payload > MaxBlockBytes)
    Payload = MaxBlockBytes;
  if (Payload < MinBytes)
    Payload = MinBytes;
  auto *B = static_cast<Block *>(
      ::operator new(sizeof(Block) + Payload, std::align_val_t(alignof(std::max_align_t))));
  B->Prev = static_cast<Block *>(Current);
  B->Size = Payload;
  Current = B;
  Used = 0;
  return B;
}

void *Arena::allocate(size_t Bytes, size_t Align) {
  assert(Align <= alignof(std::max_align_t) && "over-aligned arena request");
  size_t Aligned = (Used + Align - 1) & ~(Align - 1);
  Block *B = static_cast<Block *>(Current);
  if (!B || Aligned + Bytes > B->Size) {
    B = newBlock(Bytes);
    Aligned = 0;
  }
  Used = Aligned + Bytes;
  Allocated += Bytes;
  memstats::ArenaBytes.fetch_add(Bytes, std::memory_order_relaxed);
  return blockPayload(B) + Aligned;
}

void Arena::rewind(Mark M) {
  Block *B = static_cast<Block *>(Current);
  while (B != M.Block) {
    assert(B && "rewind mark not from this arena");
    Block *Prev = B->Prev;
    ::operator delete(B, std::align_val_t(alignof(std::max_align_t)));
    B = Prev;
  }
  Current = B;
  Used = M.Used;
}

Arena::~Arena() { rewind(Mark{}); }

//===----------------------------------------------------------------------===//
// Chunk pool
//===----------------------------------------------------------------------===//
//
// Power-of-two size classes from 32 bytes to 16 KiB.  Each live thread
// keeps a free list per class.  The global pool keeps, per class, a stack
// of runs: whole free lists, linked through their head nodes.  A thread
// that runs dry adopts one run (or, when there is none, carves a fresh
// slab from a process-wide arena) under a mutex, and an exiting thread
// hands each non-empty list back as one run, in O(1) per class (stress
// workers and checkers are short-lived).  Adopting one run
// rather than the whole pool matters: threads that run dry together each
// get a run back instead of one taking everything and the rest carving
// new slabs, so the pool stops growing at its peak concurrent demand.
// Chunks freed on a different thread than they were allocated on simply
// land in the freeing thread's list — the backing slab memory is never
// released, so no list ever points into freed storage.

#ifndef PUSHPULL_ASAN

namespace {

constexpr size_t MinClassLog2 = 5;  // 32 B
constexpr size_t MaxClassLog2 = 14; // 16 KiB
constexpr size_t NumClasses = MaxClassLog2 - MinClassLog2 + 1;
constexpr size_t SlabBytes = 64 * 1024;

struct FreeNode {
  FreeNode *Next;
  /// Set on the head node of a run in the global pool: the next run.
  FreeNode *NextRun;
};

struct GlobalPool {
  std::mutex Mutex;
  Arena Slabs;
  /// Per class, the top run (its head node), or null.
  FreeNode *Runs[NumClasses] = {};

  static GlobalPool &get() {
    static GlobalPool P;
    return P;
  }
};

/// Size class of \p Bytes, or NumClasses when too large to pool.
inline size_t classOf(size_t Bytes) {
  size_t C = MinClassLog2;
  while (C <= MaxClassLog2 && (size_t{1} << C) < Bytes)
    ++C;
  return C - MinClassLog2;
}

struct ThreadCache {
  FreeNode *Lists[NumClasses] = {};

  ~ThreadCache() {
    // Hand every local list back as one run so chunks freed on a dying
    // worker thread stay reusable.
    GlobalPool &G = GlobalPool::get();
    std::lock_guard<std::mutex> Lock(G.Mutex);
    for (size_t C = 0; C < NumClasses; ++C) {
      if (!Lists[C])
        continue;
      Lists[C]->NextRun = G.Runs[C];
      G.Runs[C] = Lists[C];
      Lists[C] = nullptr;
    }
  }
};

thread_local ThreadCache LocalCache;

} // namespace

void *pushpull::chunkAlloc(size_t Bytes) {
  size_t C = classOf(Bytes);
  if (C >= NumClasses)
    return ::operator new(Bytes);
  FreeNode *&Head = LocalCache.Lists[C];
  if (!Head) {
    size_t ClassBytes = size_t{1} << (C + MinClassLog2);
    GlobalPool &G = GlobalPool::get();
    std::lock_guard<std::mutex> Lock(G.Mutex);
    if (G.Runs[C]) {
      // Adopt one run; the others stay for threads that run dry later.
      Head = G.Runs[C];
      G.Runs[C] = Head->NextRun;
    } else {
      size_t Count = SlabBytes / ClassBytes;
      auto *Slab = static_cast<unsigned char *>(
          G.Slabs.allocate(Count * ClassBytes, alignof(std::max_align_t)));
      for (size_t I = 0; I < Count; ++I) {
        auto *N = reinterpret_cast<FreeNode *>(Slab + I * ClassBytes);
        N->Next = Head;
        Head = N;
      }
    }
  }
  FreeNode *N = Head;
  Head = N->Next;
  return N;
}

void pushpull::chunkFree(void *P, size_t Bytes) {
  size_t C = classOf(Bytes);
  if (C >= NumClasses) {
    ::operator delete(P);
    return;
  }
  auto *N = static_cast<FreeNode *>(P);
  N->Next = LocalCache.Lists[C];
  LocalCache.Lists[C] = N;
}

#else // PUSHPULL_ASAN

// Under AddressSanitizer every chunk is an individual heap object so asan
// can poison freed chunks and catch stale CoW references precisely.
void *pushpull::chunkAlloc(size_t Bytes) { return ::operator new(Bytes); }
void pushpull::chunkFree(void *P, size_t) { ::operator delete(P); }

#endif // PUSHPULL_ASAN

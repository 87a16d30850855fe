//===- support/Cow.h - Copy-on-write chunk chains and vectors ---*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural sharing for the machine's append-mostly state.  The PUSH/PULL
/// semantics is persistent by nature — a rule firing appends to one log and
/// leaves everything else alone — so a machine copy should share, not
/// duplicate.  A machine that is never copied owns every chunk outright
/// and writes them all in place.
///
/// CowChain<T, Cap> — a refcounted chain of fixed-capacity chunks, newest
/// first (Head->Prev walks toward the oldest entries).  Copying a chain is
/// one atomic increment; the ownership protocol (see DESIGN.md section 11):
///
///  * Append writes in place iff the head chunk is uniquely owned
///    (Refs == 1, acquire load) and has a free slot — the sequential
///    scheduler case, which keeps today's behavior.  Otherwise it opens a
///    fresh head chunk (the shared prefix stays shared).
///  * Truncation is by view: each handle carries its own Size; shrinking
///    only adjusts it (dropping whole chunks when they fall out of view).
///    Entries past every view ("orphans") die with their chunk, or are
///    reclaimed lazily when an append finds the chunk unique again.
///  * Mid-chain mutation (mutableAt/removeAt/insertAt) clones the shared
///    chunks on the path from the head down to the target — a bounded deep
///    copy, counted in memstats::DeepCopies.
///
/// Invariants: a non-head chunk is always fully in view of every handle
/// that can reach it; Chunk::PrevCount (entries in older chunks) is the
/// index of the chunk's first entry, so lookup walks newest-to-oldest until
/// PrevCount <= I.  Chunks never change identity under a shared handle —
/// only uniquely owned chunks are written.
///
/// CowVec<T> — a refcounted whole-vector CoW for small, rarely mutated
/// state (committed-transaction history, pending queues): copying is one
/// refcount bump, the first mutation under sharing clones the vector.
///
/// Thread-safety matches shared_ptr: distinct handles to shared structure
/// may be used from distinct threads concurrently; one handle needs
/// external synchronization.  The Refs == 1 uniqueness check is sound
/// because if we observe 1, ours is the only handle left.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SUPPORT_COW_H
#define PUSHPULL_SUPPORT_COW_H

#include "support/Arena.h"
#include "support/SmallVec.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace pushpull {

template <typename T, size_t Cap> class CowChain {
  struct Chunk {
    std::atomic<uint32_t> Refs;
    uint32_t Count;    ///< Constructed entries in Slots.
    size_t PrevCount;  ///< Entries living in older chunks (= first index).
    Chunk *Prev;       ///< Next-older chunk (owning ref), or null.
    alignas(T) unsigned char Slots[Cap * sizeof(T)];

    T *slots() { return reinterpret_cast<T *>(Slots); }
    const T *slots() const { return reinterpret_cast<const T *>(Slots); }
  };

public:
  CowChain() = default;

  CowChain(const CowChain &O) : Head(O.Head), Size(O.Size) {
    if (Head) {
      Head->Refs.fetch_add(1, std::memory_order_relaxed);
      memstats::ChunkShares.fetch_add(1, std::memory_order_relaxed);
    }
  }
  CowChain(CowChain &&O) noexcept : Head(O.Head), Size(O.Size) {
    O.Head = nullptr;
    O.Size = 0;
  }
  CowChain &operator=(const CowChain &O) {
    if (this == &O)
      return *this;
    Chunk *Old = Head;
    Head = O.Head;
    Size = O.Size;
    if (Head) {
      Head->Refs.fetch_add(1, std::memory_order_relaxed);
      memstats::ChunkShares.fetch_add(1, std::memory_order_relaxed);
    }
    releaseChain(Old);
    return *this;
  }
  CowChain &operator=(CowChain &&O) noexcept {
    if (this == &O)
      return *this;
    Chunk *Old = Head;
    Head = O.Head;
    Size = O.Size;
    O.Head = nullptr;
    O.Size = 0;
    releaseChain(Old);
    return *this;
  }
  ~CowChain() { releaseChain(Head); }

  bool empty() const { return Size == 0; }
  size_t size() const { return Size; }

  const T &operator[](size_t I) const {
    assert(I < Size && "CowChain index out of range");
    const Chunk *C = Head;
    while (I < C->PrevCount)
      C = C->Prev;
    return C->slots()[I - C->PrevCount];
  }

  /// Append, in place when the head chunk is uniquely owned and has room.
  void push(T V) {
    if (Head && Head->Refs.load(std::memory_order_acquire) == 1) {
      // Sole owner: first reclaim orphan slots past our view, then fill.
      uint32_t View = static_cast<uint32_t>(Size - Head->PrevCount);
      while (Head->Count > View)
        Head->slots()[--Head->Count].~T();
      if (Head->Count < Cap) {
        ::new (static_cast<void *>(Head->slots() + Head->Count))
            T(std::move(V));
        ++Head->Count;
        ++Size;
        return;
      }
    }
    Chunk *C = newChunk();
    C->PrevCount = Size;
    C->Prev = Head; // Transfer our reference to the new head's Prev link.
    ::new (static_cast<void *>(C->slots())) T(std::move(V));
    C->Count = 1;
    Head = C;
    ++Size;
  }

  /// Shrink the view to \p NewSize.  Never touches shared chunks.
  void truncate(size_t NewSize) {
    assert(NewSize <= Size && "truncate growing a chain");
    Size = NewSize;
    while (Head && Head->PrevCount >= NewSize) {
      Chunk *Prev = Head->Prev;
      if (Prev)
        Prev->Refs.fetch_add(1, std::memory_order_relaxed);
      releaseChain(Head);
      Head = Prev;
    }
    // If we still own the (new) head outright, reclaim orphans eagerly so
    // sequential truncate-then-append reuses the slots.
    if (Head && Head->Refs.load(std::memory_order_acquire) == 1) {
      uint32_t View = static_cast<uint32_t>(Size - Head->PrevCount);
      while (Head->Count > View)
        Head->slots()[--Head->Count].~T();
    }
  }

  void clear() { truncate(0); }

  /// Mutable access to entry \p I; clones shared chunks on the path.
  T &mutableAt(size_t I) {
    assert(I < Size && "CowChain index out of range");
    Chunk *C = ensureUniquePath(I);
    return C->slots()[I - C->PrevCount];
  }

  /// Remove entry \p I, shifting later entries of its chunk left and
  /// re-indexing newer chunks.
  void removeAt(size_t I) {
    assert(I < Size && "removeAt out of range");
    Chunk *Target = ensureUniquePath(I);
    T *S = Target->slots();
    for (size_t K = I - Target->PrevCount + 1; K < Target->Count; ++K)
      S[K - 1] = std::move(S[K]);
    S[--Target->Count].~T();
    // Every chunk newer than the target (all unique after ensureUniquePath)
    // starts one entry earlier now.
    for (Chunk *C = Head; C != Target; C = C->Prev)
      --C->PrevCount;
    --Size;
  }

  /// Insert \p V before entry \p I (I == size() appends) — the inverse of
  /// removeAt.  Clones shared chunks on the path like removeAt; a full
  /// target chunk is split, its entries from \p I on moving to a new chunk
  /// linked just above it.
  void insertAt(size_t I, T V) {
    assert(I <= Size && "insertAt out of range");
    if (I == Size) {
      push(std::move(V));
      return;
    }
    Chunk *Target = ensureUniquePath(I);
    size_t From = I - Target->PrevCount;
    T *S = Target->slots();
    if (Target->Count == Cap) {
      Chunk **Link = &Head;
      while (*Link != Target)
        Link = &(*Link)->Prev;
      Chunk *Upper = newChunk();
      for (size_t K = From; K < Target->Count; ++K) {
        ::new (static_cast<void *>(Upper->slots() + (K - From)))
            T(std::move(S[K]));
        S[K].~T();
      }
      Upper->Count = static_cast<uint32_t>(Target->Count - From);
      Upper->PrevCount = I; // Bumped past the new entry below.
      Upper->Prev = Target; // Takes over the reference *Link held.
      Target->Count = static_cast<uint32_t>(From);
      *Link = Upper;
    }
    ::new (static_cast<void *>(S + Target->Count)) T(std::move(V));
    ++Target->Count;
    std::rotate(S + From, S + Target->Count - 1, S + Target->Count);
    for (Chunk *C = Head; C != Target; C = C->Prev)
      ++C->PrevCount;
    ++Size;
  }

  /// Forward iterator over the view (oldest first).  The initial descent
  /// from the head records the chunks it passes, so crossing a chunk
  /// boundary pops the recorded path instead of re-walking the chain —
  /// a full sweep is O(entries + chunks) even on heavily fragmented
  /// post-copy chains (a fresh head chunk per append), where a
  /// per-boundary walk from the head would be quadratic.
  class const_iterator {
  public:
    using value_type = T;
    using reference = const T &;

    const_iterator() = default;
    const_iterator(const CowChain *Chain, size_t Idx) : Chain(Chain), Idx(Idx) {
      refresh();
    }

    const T &operator*() const { return C->slots()[Idx - C->PrevCount]; }
    const T *operator->() const { return &**this; }

    const_iterator &operator++() {
      ++Idx;
      if (Idx >= Chain->Size)
        C = nullptr;
      else if (Idx >= RegionEnd)
        ascend();
      return *this;
    }

    bool operator==(const const_iterator &O) const { return Idx == O.Idx; }
    bool operator!=(const const_iterator &O) const { return Idx != O.Idx; }

  private:
    /// The region of the chunk below the top of \p Path (or of the head
    /// when the path is empty): bounded both by the chunk's own entries
    /// and by the next newer chunk's PrevCount — a post-truncation append
    /// can shadow orphan slots of an older chunk.
    void setRegion() {
      size_t Bound = Path.empty() ? Chain->Size : Path.back()->PrevCount;
      size_t ChunkEnd = C->PrevCount + C->Count;
      RegionEnd = Bound < ChunkEnd ? Bound : ChunkEnd;
    }

    /// Step to the chunk holding Idx after exhausting the current region:
    /// the next newer chunk on the recorded path, skipping chunks with no
    /// entries left in view.
    void ascend() {
      do {
        C = Path.back();
        Path.pop_back();
        setRegion();
      } while (Idx >= RegionEnd);
    }

    void refresh() {
      if (Idx >= Chain->Size) {
        C = nullptr;
        return;
      }
      Path.clear();
      const Chunk *Cur = Chain->Head;
      while (Idx < Cur->PrevCount) {
        Path.push_back(Cur);
        Cur = Cur->Prev;
      }
      C = Cur;
      setRegion();
    }

    const CowChain *Chain = nullptr;
    size_t Idx = 0;
    const Chunk *C = nullptr;
    size_t RegionEnd = 0;
    /// Chunks passed on the descent to C, newest first (back = the chunk
    /// the sweep enters next).
    SmallVec<const Chunk *, 8> Path;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, Size); }

private:
  static Chunk *newChunk() {
    auto *C = static_cast<Chunk *>(chunkAlloc(sizeof(Chunk)));
    C->Refs.store(1, std::memory_order_relaxed);
    C->Count = 0;
    C->PrevCount = 0;
    C->Prev = nullptr;
    memstats::SnapshotBytes.fetch_add(sizeof(Chunk),
                                      std::memory_order_relaxed);
    return C;
  }

  /// Drop one reference to \p C.  A dying chunk destroys its entries,
  /// frees its storage, and drops its own reference on Prev — iteratively,
  /// so multi-thousand-entry chains never recurse.
  static void releaseChain(Chunk *C) {
    while (C) {
      if (C->Refs.fetch_sub(1, std::memory_order_acq_rel) != 1)
        return;
      Chunk *Prev = C->Prev;
      destroyChunk(C);
      C = Prev;
    }
  }

  static void destroyChunk(Chunk *C) {
    T *S = C->slots();
    for (uint32_t I = C->Count; I > 0; --I)
      S[I - 1].~T();
    chunkFree(C, sizeof(Chunk));
  }

  /// Make every chunk from the head down to (and including) the one
  /// holding index \p I uniquely owned and trimmed to this handle's view;
  /// returns the chunk holding \p I.
  Chunk *ensureUniquePath(size_t I) {
    Chunk **Link = &Head;
    size_t End = Size; // View entries below *Link's newer neighbour.
    for (;;) {
      Chunk *C = *Link;
      uint32_t View = static_cast<uint32_t>(End - C->PrevCount);
      if (C->Refs.load(std::memory_order_acquire) != 1) {
        Chunk *N = newChunk();
        N->PrevCount = C->PrevCount;
        N->Prev = C->Prev;
        if (N->Prev)
          N->Prev->Refs.fetch_add(1, std::memory_order_relaxed);
        const T *S = C->slots();
        for (uint32_t K = 0; K < View; ++K)
          ::new (static_cast<void *>(N->slots() + K)) T(S[K]);
        N->Count = View;
        memstats::DeepCopies.fetch_add(1, std::memory_order_relaxed);
        releaseChain(C);
        *Link = N;
        C = N;
      } else if (C->Count > View) {
        T *S = C->slots();
        while (C->Count > View)
          S[--C->Count].~T();
      }
      if (I >= C->PrevCount)
        return C;
      Link = &C->Prev;
      End = C->PrevCount;
    }
  }

  Chunk *Head = nullptr;
  size_t Size = 0;
};

/// Whole-vector copy-on-write: share on copy, clone on first mutation
/// under sharing.  view() keeps the familiar const-vector surface.  The
/// reference count is CowChain's protocol, not shared_ptr's: uniqueness is
/// an acquire load, so a handle that sees itself alone also sees every
/// read the released handles made, and may write in place (use_count() is
/// a relaxed load, which would let that write race with a clone another
/// thread was just taking).
template <typename T> class CowVec {
  struct Rep {
    std::atomic<uint32_t> Refs{1};
    std::vector<T> V;
  };

public:
  CowVec() = default;
  CowVec(const CowVec &O) : R(O.R) {
    if (R)
      R->Refs.fetch_add(1, std::memory_order_relaxed);
  }
  CowVec(CowVec &&O) noexcept : R(O.R) { O.R = nullptr; }
  CowVec &operator=(const CowVec &O) {
    if (O.R)
      O.R->Refs.fetch_add(1, std::memory_order_relaxed);
    release(R);
    R = O.R;
    return *this;
  }
  CowVec &operator=(CowVec &&O) noexcept {
    if (this != &O) {
      release(R);
      R = O.R;
      O.R = nullptr;
    }
    return *this;
  }
  ~CowVec() { release(R); }

  bool empty() const { return !R || R->V.empty(); }
  size_t size() const { return R ? R->V.size() : 0; }
  const T &operator[](size_t I) const { return R->V[I]; }
  const T &front() const { return R->V.front(); }

  const std::vector<T> &view() const {
    static const std::vector<T> Empty;
    return R ? R->V : Empty;
  }
  typename std::vector<T>::const_iterator begin() const {
    return view().begin();
  }
  typename std::vector<T>::const_iterator end() const { return view().end(); }

  void push_back(T V) { own().push_back(std::move(V)); }
  void pop_back() { own().pop_back(); }
  void insertFront(T V) {
    std::vector<T> &M = own();
    M.insert(M.begin(), std::move(V));
  }
  void eraseFront() {
    std::vector<T> &M = own();
    M.erase(M.begin());
  }
  void clear() {
    release(R);
    R = nullptr;
  }

private:
  static void release(Rep *P) {
    if (P && P->Refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      delete P;
  }

  std::vector<T> &own() {
    if (!R) {
      R = new Rep;
    } else if (R->Refs.load(std::memory_order_acquire) != 1) {
      Rep *Copy = new Rep;
      Copy->V = R->V;
      release(R);
      R = Copy;
      memstats::DeepCopies.fetch_add(1, std::memory_order_relaxed);
    }
    return R->V;
  }

  Rep *R = nullptr;
};

} // namespace pushpull

#endif // PUSHPULL_SUPPORT_COW_H

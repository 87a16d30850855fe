//===- stress/RingTrace.h - Lock-free SPSC schedule rings -------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The capture channel between one stress worker and its own window
/// checker thread: a bounded single-producer/single-consumer ring of
/// compact per-step records.  The worker appends one StressRecord per
/// engine step (thread picked, step status, log-size/commit fingerprint);
/// the checker drains them, advances the worker's shadow machine by the
/// same picks, and cross-checks the fingerprints.
///
/// Lock-free in the usual SPSC sense: producer and consumer each own one
/// index and only *read* the other's (acquire/release), so neither ever
/// blocks on a lock the other holds.  A full ring back-pressures the
/// producer (tryPush returns false; the worker spins and counts it) — the
/// recording must stay bounded, and losing records would make the window
/// replay unsound.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_STRESS_RINGTRACE_H
#define PUSHPULL_STRESS_RINGTRACE_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

namespace pushpull {

/// One engine step, as captured by a stress worker.  Everything the
/// checker needs to (a) re-drive the shadow machine (Round, Pick) and
/// (b) cross-check it against the live run (Status, LSize, GSize,
/// Commits) and (c) window the stream (Epoch, CommitSeq).
struct StressRecord {
  /// Worker-local step index (0-based within the round).
  uint64_t Order = 0;
  /// Arbiter epoch at the time of the step (window id).
  uint64_t Epoch = 0;
  /// Global commit sequence granted by the arbiter (0 for non-commits).
  uint64_t CommitSeq = 0;
  /// Workload round this step belongs to (shadow machines are per round).
  uint32_t Round = 0;
  /// Logical thread the worker stepped.
  uint32_t Pick = 0;
  /// StepStatus the live engine returned, as its enum ordinal.
  uint8_t Status = 0;
  /// Fingerprint of the live machine right after the step: the picked
  /// thread's local-log length, the shared-log length, and the machine's
  /// total commit count.  Any divergence between live and shadow shows up
  /// here within one step.
  uint32_t LSize = 0;
  uint32_t GSize = 0;
  uint32_t Commits = 0;

  bool operator==(const StressRecord &) const = default;
};

/// Bounded SPSC ring buffer of StressRecords.
class RingTrace {
public:
  /// \p CapacityPow2 must be a power of two (masked indexing).
  explicit RingTrace(size_t CapacityPow2 = 1024)
      : Buf(CapacityPow2), Mask(CapacityPow2 - 1) {
    assert(CapacityPow2 >= 2 && (CapacityPow2 & Mask) == 0 &&
           "ring capacity must be a power of two");
  }

  RingTrace(const RingTrace &) = delete;
  RingTrace &operator=(const RingTrace &) = delete;

  /// Producer side.  False when the ring is full (caller spins/yields).
  bool tryPush(const StressRecord &R) {
    uint64_t T = Tail.load(std::memory_order_relaxed);
    uint64_t H = Head.load(std::memory_order_acquire);
    if (T - H >= Buf.size())
      return false;
    Buf[T & Mask] = R;
    Tail.store(T + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side.  False when the ring is empty.
  bool tryPop(StressRecord &R) {
    uint64_t H = Head.load(std::memory_order_relaxed);
    uint64_t T = Tail.load(std::memory_order_acquire);
    if (H == T)
      return false;
    R = Buf[H & Mask];
    Head.store(H + 1, std::memory_order_release);
    return true;
  }

  /// Records currently queued (either side may call; a racy but monotone
  /// estimate under concurrency, exact in quiescence).
  size_t size() const {
    uint64_t T = Tail.load(std::memory_order_acquire);
    uint64_t H = Head.load(std::memory_order_acquire);
    return static_cast<size_t>(T - H);
  }

  size_t capacity() const { return Buf.size(); }

private:
  std::vector<StressRecord> Buf;
  const uint64_t Mask;
  /// Consumer-owned read index and producer-owned write index, on
  /// separate cache lines so the two sides don't false-share.
  alignas(64) std::atomic<uint64_t> Head{0};
  alignas(64) std::atomic<uint64_t> Tail{0};
};

} // namespace pushpull

#endif // PUSHPULL_STRESS_RINGTRACE_H

//===- support/Rng.h - Deterministic pseudo-randomness ----------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small deterministic PRNG (xorshift64*) used everywhere randomness is
/// needed: schedulers, workload generators, property-test input generation.
/// All experiments are reproducible from a seed.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SUPPORT_RNG_H
#define PUSHPULL_SUPPORT_RNG_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pushpull {

/// Deterministic xorshift64* generator with convenience samplers.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed ? Seed : 0x9e3779b97f4a7c15ull) {}

  /// Next raw 64-bit value.
  uint64_t next();

  /// Uniform integer in [0, Bound). \p Bound must be positive.
  uint64_t below(uint64_t Bound);

  /// Uniform integer in [Lo, Hi] inclusive.
  int64_t range(int64_t Lo, int64_t Hi);

  /// Bernoulli trial with probability \p Num / \p Den.
  bool chance(uint64_t Num, uint64_t Den);

  /// Uniformly pick an element of a non-empty vector (std::vector or
  /// SmallVec).
  template <typename Vec> const typename Vec::value_type &pick(const Vec &Xs) {
    assert(!Xs.empty() && "pick() from empty vector");
    return Xs[below(Xs.size())];
  }

  /// Zipf-like skewed sample in [0, N): rank r is chosen with weight
  /// proportional to 1/(r+1)^Theta (Theta in hundredths, e.g. 100 => 1.0).
  /// Theta = 0 degenerates to uniform. Used by contention sweeps (E10).
  uint64_t zipf(uint64_t N, unsigned ThetaHundredths);

  /// Fisher-Yates shuffle.
  template <typename T> void shuffle(std::vector<T> &Xs) {
    for (std::size_t I = Xs.size(); I > 1; --I)
      std::swap(Xs[I - 1], Xs[below(I)]);
  }

  /// Fork an independent stream (for per-thread generators).
  Rng split();

private:
  uint64_t State;
};

} // namespace pushpull

#endif // PUSHPULL_SUPPORT_RNG_H

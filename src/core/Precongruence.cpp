//===- core/Precongruence.cpp - Executable Definition 3.1 ------------------===//

#include "core/Precongruence.h"

#include <deque>

using namespace pushpull;

static uint64_t pairKey(StateSetId S1, StateSetId S2) {
  return (static_cast<uint64_t>(S1) << 32) | S2;
}

PrecongruenceChecker::PrecongruenceChecker(const SequentialSpec &Spec,
                                           PrecongruenceLimits Limits)
    : Spec(Spec), Limits(Limits), Probes(Spec.probes()),
      ProbeKeys(Spec.probeKeys()) {}

Tri PrecongruenceChecker::check(const StateSet &S1, const StateSet &S2) {
  return check(Spec.internSet(S1), Spec.internSet(S2));
}

Tri PrecongruenceChecker::check(StateSetId S1, StateSetId S2) {
  // The coinductive rule unfolds to: l1 =< l2 fails iff some finite probe
  // suffix w has allowed(l1.w) but not allowed(l2.w) — i.e. iff the pair
  // graph reachable from ([[l1]], [[l2]]) under the probe alphabet
  // contains a pair with a nonempty left and empty right component.  That
  // makes the decision a plain reachability search:
  //
  //  * finding a violating pair is an exact No (finite witness);
  //  * exhausting the reachable closure without one is an exact Yes (the
  //    visited set is closed under the rule, hence inside the gfp);
  //  * exhausting the pair budget first is Unknown.
  StateTable &Table = Spec.table();
  uint64_t RootKey = pairKey(S1, S2);
  if (KnownGood.count(RootKey))
    return Tri::Yes;
  if (KnownBad.count(RootKey))
    return Tri::No;

  std::unordered_set<uint64_t> Visited;
  std::deque<std::pair<StateSetId, StateSetId>> Frontier;
  Visited.insert(RootKey);
  Frontier.push_back({S1, S2});
  size_t Budget = Limits.MaxPairs;

  while (!Frontier.empty()) {
    auto [A, B] = Frontier.front();
    Frontier.pop_front();

    // Once the left log is disallowed it stays disallowed (the image of
    // an empty set is empty), so nothing below this pair can violate.
    if (Table.setEmpty(A))
      continue;
    // Subset inclusion is closed under extension (images are monotone),
    // so no violation is reachable from an included pair.  This also
    // covers the ubiquitous diagonal case A == B exactly.
    if (Table.subset(A, B))
      continue;
    if (Table.setEmpty(B)) {
      // Base violation: allowed(l1.w) but not allowed(l2.w).
      KnownBad.insert(RootKey);
      KnownBad.insert(pairKey(A, B));
      return Tri::No;
    }
    uint64_t Key = pairKey(A, B);
    if (KnownBad.count(Key)) {
      KnownBad.insert(RootKey);
      return Tri::No;
    }
    if (KnownGood.count(Key))
      continue; // Everything reachable from here is already certified.

    if (Budget == 0)
      return Tri::Unknown;
    --Budget;
    ++PairsVisited;

    for (size_t I = 0; I < Probes.size(); ++I) {
      StateSetId N1 = Spec.applyOpId(A, Probes[I], ProbeKeys[I]);
      if (Table.setEmpty(N1))
        continue; // Extension disallowed on the left: vacuous.
      StateSetId N2 = Spec.applyOpId(B, Probes[I], ProbeKeys[I]);
      if (Visited.insert(pairKey(N1, N2)).second)
        Frontier.push_back({N1, N2});
    }
  }

  // The visited closure contains no violation and is closed under probe
  // extension: promote it to the persistent Good cache.
  KnownGood.insert(Visited.begin(), Visited.end());
  return Tri::Yes;
}

Tri PrecongruenceChecker::checkLogs(const std::vector<Operation> &L1,
                                    const std::vector<Operation> &L2) {
  return check(Spec.denoteId(L1), Spec.denoteId(L2));
}

//===- sim/Reduction.cpp - Partial-order reduction for the explorer ---------===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "sim/Reduction.h"

#include "core/Machine.h"

#include <algorithm>
#include <cassert>

namespace pushpull {

std::string toString(Reduction R) {
  switch (R) {
  case Reduction::None:
    return "none";
  case Reduction::Sleep:
    return "sleep";
  case Reduction::Persistent:
    return "persistent";
  case Reduction::PersistentSymmetry:
    return "persistent+symmetry";
  }
  return "?";
}

namespace {
/// Every mode name reductionFromString takes; "symmetry" is an alias.
struct ModeName {
  const char *Name;
  Reduction Mode;
};
constexpr ModeName ModeNames[] = {
    {"none", Reduction::None},
    {"sleep", Reduction::Sleep},
    {"persistent", Reduction::Persistent},
    {"persistent+symmetry", Reduction::PersistentSymmetry},
    {"symmetry", Reduction::PersistentSymmetry},
};
} // namespace

bool reductionFromString(const std::string &S, Reduction &Out) {
  for (const ModeName &M : ModeNames)
    if (S == M.Name) {
      Out = M.Mode;
      return true;
    }
  return false;
}

const std::vector<std::string> &reductionNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> Out;
    for (const ModeName &M : ModeNames)
      Out.emplace_back(M.Name);
    return Out;
  }();
  return Names;
}

std::string toString(FiringKind K) {
  switch (K) {
  case FiringKind::Begin:
    return "BEGIN";
  case FiringKind::App:
    return "APP";
  case FiringKind::UnApp:
    return "UNAPP";
  case FiringKind::Push:
    return "PUSH";
  case FiringKind::UnPush:
    return "UNPUSH";
  case FiringKind::Pull:
    return "PULL";
  case FiringKind::UnPull:
    return "UNPULL";
  case FiringKind::Commit:
    return "CMT";
  }
  return "?";
}

std::string Firing::toString() const {
  std::string Out = "t" + std::to_string(Tid) + ":" + pushpull::toString(Kind);
  switch (Kind) {
  case FiringKind::Begin:
  case FiringKind::UnApp:
  case FiringKind::Commit:
    break;
  case FiringKind::App:
    Out += "(" + std::to_string(A) + "," + std::to_string(B) + ")";
    break;
  case FiringKind::Push:
  case FiringKind::UnPush:
  case FiringKind::Pull:
  case FiringKind::UnPull:
    Out += "(" + std::to_string(A) + ")";
    break;
  }
  return Out;
}

bool independentFirings(const Candidate &A, const Candidate &B,
                        const CommutativityOracle *DB) {
  // Same-thread firings race on {c, sigma, L} and on the thread's rule
  // order; never claim independence.
  if (A.F.Tid == B.F.Tid)
    return false;
  // A thread-local firing (BEGIN/APP/UNAPP/UNPULL) commutes with any
  // firing of any other thread: its criteria and mutation live entirely
  // in its own thread's state, which no other thread's rule reads.
  if (A.FP.local() || B.FP.local())
    return true;
  // Both touch G.  PULL is the one G rule refined entry-wise: its
  // criteria read only the pulled entry and its mutation is an own-L
  // append.
  auto PullVs = [](const Candidate &P, const Candidate &O) {
    switch (O.F.Kind) {
    case FiringKind::Pull:
      // Both read-only on G.
      return true;
    case FiringKind::Push:
      // PUSH appends: existing entries and their indices are untouched,
      // and PULL's own-L append is invisible to PUSH's criteria.
      return true;
    case FiringKind::Commit:
      // CMT reflags the committer's gUCmt entries.  A pull of an entry
      // that is already committed, or owned by someone else, reads
      // nothing CMT writes — and pulling adds nothing CMT's criteria
      // (fin, own-L/G containment, commitOwned) read.  A pull of the
      // committer's *uncommitted* entry is dependent: the orders differ
      // observably (the opacity tracking and the candidate filter both
      // distinguish uncommitted pulls).
      return P.FP.PullCommitted || P.FP.PullOwner != O.F.Tid;
    default:
      // UNPUSH removes an entry: global indices shift, and the pulled
      // entry itself may be the one recalled.  Dependent.
      return false;
    }
  };
  if (A.F.Kind == FiringKind::Pull)
    return PullVs(A, B);
  if (B.F.Kind == FiringKind::Pull)
    return PullVs(B, A);
  // PUSH x PUSH: the append order is part of the raw configuration, so
  // without an oracle the pair is dependent.  With one, strongly
  // commuting publications are independent — the configuration key
  // renders G in the quotient's canonical order, so both append orders
  // produce the same canonical configuration, and strong commutation
  // keeps every denotation-based criterion (including each PUSH's own
  // enabledness) insensitive to the order.
  if (DB && A.F.Kind == FiringKind::Push && B.F.Kind == FiringKind::Push)
    return DB->stronglyCommute(A.FP.OpKey, B.FP.OpKey);
  // The remaining pairs all write G in order-sensitive ways: PUSH x PUSH
  // (append order is part of the configuration), CMT x CMT (commit order
  // feeds the oracle — both orders must be explored), PUSH/UNPUSH x CMT,
  // UNPUSH x anything.  Conservatively dependent.
  return false;
}

bool applyFiring(PushPullMachine &M, const Firing &F) {
  switch (F.Kind) {
  case FiringKind::Begin:
    return M.beginTx(F.Tid);
  case FiringKind::App:
    return M.app(F.Tid, F.A, F.B).Applied;
  case FiringKind::UnApp:
    return M.unapp(F.Tid).Applied;
  case FiringKind::Push:
    return M.push(F.Tid, F.A).Applied;
  case FiringKind::UnPush:
    return M.unpush(F.Tid, F.A).Applied;
  case FiringKind::Pull:
    return M.pull(F.Tid, F.A).Applied;
  case FiringKind::UnPull:
    return M.unpull(F.Tid, F.A).Applied;
  case FiringKind::Commit:
    return M.commit(F.Tid).Applied;
  }
  return false;
}

bool SleepSet::contains(const Firing &F) const {
  auto It = std::lower_bound(
      Members.begin(), Members.end(), F,
      [](const Candidate &C, const Firing &Key) { return C.F < Key; });
  return It != Members.end() && It->F == F;
}

void SleepSet::insert(const Candidate &C) {
  auto It = std::lower_bound(
      Members.begin(), Members.end(), C.F,
      [](const Candidate &M, const Firing &Key) { return M.F < Key; });
  if (It != Members.end() && It->F == C.F)
    return;
  Members.insert(It, C);
}

SleepSet SleepSet::survivorsAfter(const Candidate &Fired,
                                  const CommutativityOracle *DB) const {
  SleepSet Out;
  Out.Members.reserve(Members.size());
  for (const Candidate &C : Members)
    if (independentFirings(C, Fired, DB))
      Out.Members.push_back(C); // Insertion order preserves sortedness.
  return Out;
}

bool SleepSet::supersetOf(const SleepSet &O) const {
  if (O.Members.size() > Members.size())
    return false;
  // Both sorted: a single merge pass.
  auto It = Members.begin();
  for (const Candidate &C : O.Members) {
    while (It != Members.end() && It->F < C.F)
      ++It;
    if (It == Members.end() || !(It->F == C.F))
      return false;
    ++It;
  }
  return true;
}

SleepSet SleepSet::relabeled(const std::vector<TxId> &LabelOf) const {
  SleepSet Out;
  Out.Members = Members;
  for (Candidate &C : Out.Members) {
    C.F.Tid = LabelOf[C.F.Tid];
    if (C.F.Kind == FiringKind::Pull)
      C.FP.PullOwner = LabelOf[C.FP.PullOwner];
  }
  std::sort(Out.Members.begin(), Out.Members.end(),
            [](const Candidate &A, const Candidate &B) { return A.F < B.F; });
  return Out;
}

SleepSet SleepSet::reindexedG(const SmallVec<uint32_t, 16> &Order) const {
  // Identity fast path (also covers the no-oracle case, where configKey
  // fills the identity order).
  bool IsIdentity = true;
  for (size_t I = 0; I < Order.size(); ++I)
    if (Order[I] != I) {
      IsIdentity = false;
      break;
    }
  if (IsIdentity)
    return *this;
  // Invert: CanonOf[raw] = canonical position.
  SmallVec<uint32_t, 16> CanonOf;
  CanonOf.resize(Order.size());
  for (size_t I = 0; I < Order.size(); ++I)
    CanonOf[Order[I]] = static_cast<uint32_t>(I);
  SleepSet Out;
  Out.Members = Members;
  for (Candidate &C : Out.Members)
    if (C.F.Kind == FiringKind::Pull && C.F.A < CanonOf.size())
      C.F.A = CanonOf[C.F.A];
  std::sort(Out.Members.begin(), Out.Members.end(),
            [](const Candidate &A, const Candidate &B) { return A.F < B.F; });
  return Out;
}

void SleepSet::intersectWith(const SleepSet &O) {
  Storage Out;
  Out.reserve(std::min(Members.size(), O.Members.size()));
  auto It = O.Members.begin();
  for (const Candidate &C : Members) {
    while (It != O.Members.end() && It->F < C.F)
      ++It;
    if (It != O.Members.end() && It->F == C.F)
      Out.push_back(C);
  }
  Members = std::move(Out);
}

std::vector<std::vector<TxId>>
symmetryGroup(const std::vector<std::vector<CodePtr>> &Programs,
              size_t MaxPerms) {
  const size_t N = Programs.size();
  std::vector<TxId> Identity(N);
  for (size_t T = 0; T < N; ++T)
    Identity[T] = static_cast<TxId>(T);

  // Class threads by program text.
  std::vector<std::string> Key(N);
  for (size_t T = 0; T < N; ++T)
    for (const CodePtr &Tx : Programs[T]) {
      Key[T] += Tx ? Tx->printed() : "<null>";
      Key[T] += '\x01';
    }
  std::vector<std::vector<TxId>> Classes;
  for (size_t T = 0; T < N; ++T) {
    bool Placed = false;
    for (std::vector<TxId> &C : Classes)
      if (Key[C.front()] == Key[T]) {
        C.push_back(static_cast<TxId>(T));
        Placed = true;
        break;
      }
    if (!Placed)
      Classes.push_back({static_cast<TxId>(T)});
  }

  // Per-class permutations of the class members (identity first: the
  // members are listed in increasing tid order, so next_permutation
  // enumerates from the identity).
  std::vector<std::vector<std::vector<TxId>>> PerClass;
  for (const std::vector<TxId> &C : Classes) {
    std::vector<std::vector<TxId>> Ps;
    std::vector<TxId> P = C;
    do {
      Ps.push_back(P);
      // Per-class truncation keeps the product enumeration bounded even
      // for one huge class.
      if (Ps.size() >= MaxPerms)
        break;
    } while (std::next_permutation(P.begin(), P.end()));
    PerClass.push_back(std::move(Ps));
  }

  // Odometer over the per-class choices.  Truncating at MaxPerms is
  // sound: canonicalization by a minimum over any identity-containing
  // subset merges only genuinely equivalent configurations.
  std::vector<std::vector<TxId>> Group;
  std::vector<size_t> Digit(Classes.size(), 0);
  while (Group.size() < MaxPerms) {
    std::vector<TxId> LabelOf = Identity;
    for (size_t Ci = 0; Ci < Classes.size(); ++Ci) {
      const std::vector<TxId> &Members = Classes[Ci];
      const std::vector<TxId> &Img = PerClass[Ci][Digit[Ci]];
      for (size_t I = 0; I < Members.size(); ++I)
        LabelOf[Members[I]] = Img[I];
    }
    Group.push_back(std::move(LabelOf));
    // Advance the odometer.
    size_t Ci = 0;
    for (; Ci < Classes.size(); ++Ci) {
      if (++Digit[Ci] < PerClass[Ci].size())
        break;
      Digit[Ci] = 0;
    }
    if (Ci == Classes.size())
      break;
  }
  assert(!Group.empty() && Group.front() == Identity);
  return Group;
}

size_t restrictToPersistent(ArenaVec<Candidate> &Cands) {
  // A BEGIN candidate exists exactly for an idle thread with pending
  // transactions, and its singleton is persistent (see Reduction.h).
  // Pick the lowest such thread for determinism.
  const Candidate *Begin = nullptr;
  for (const Candidate &C : Cands)
    if (C.F.Kind == FiringKind::Begin && (!Begin || C.F.Tid < Begin->F.Tid))
      Begin = &C;
  if (!Begin || Cands.size() <= 1)
    return 0;
  Candidate Keep = *Begin;
  size_t Dropped = Cands.size() - 1;
  Cands[0] = Keep;
  Cands.truncate(1);
  return Dropped;
}

} // namespace pushpull

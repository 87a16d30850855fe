//===- sim/Explorer.cpp - Exhaustive interleaving explorer ------------------===//

#include "sim/Explorer.h"

#include "core/Invariants.h"
#include "lang/Printer.h"
#include "support/KeyTable.h"

#include <algorithm>
#include <cstring>
#include <string_view>

using namespace pushpull;

namespace {

/// Render into \p Key everything the commit-order oracle looks at — the
/// commit-ordered transactions (body, start/final stacks) and the committed
/// shared log.  Two machines with equal keys get identical verdicts from
/// SerializabilityChecker::checkCommitOrder, which is deterministic in
/// that content, so verdicts can be memoized per search.
void committedContentKey(const PushPullMachine &M, StateTable &Table,
                         std::string &Key) {
  SmallVec<const CommittedTx *, 8> Order;
  for (const CommittedTx &T : M.committed())
    Order.push_back(&T);
  std::sort(Order.begin(), Order.end(),
            [](const CommittedTx *A, const CommittedTx *B) {
              return A->CommitSeq < B->CommitSeq;
            });

  Key.clear();
  auto Append32 = [&Key](uint32_t V) {
    char B[4];
    std::memcpy(B, &V, 4);
    Key.append(B, 4);
  };
  auto AppendStack = [&](const Stack &S) {
    Append32(static_cast<uint32_t>(S.size()));
    for (const auto &[Var, Val] : S.entries()) {
      Key += Var; // Identifier text: never contains NUL.
      Key.push_back('\0');
      uint64_t Bits = static_cast<uint64_t>(Val);
      char B[8];
      std::memcpy(B, &Bits, 8);
      Key.append(B, 8);
    }
  };
  for (const CommittedTx *T : Order) {
    Key += T->Body->printed();
    Key.push_back('\0');
    AppendStack(T->Sigma);
    AppendStack(T->FinalSigma);
  }
  for (const GlobalEntry &E : M.global().entries())
    if (E.Kind == GlobalKind::Committed)
      Append32(Table.opKey(E.Op));
}

/// Enumerate every candidate move from \p M as a (firing, footprint)
/// pair, in the search's canonical rule order:
/// per thread, guarded BEGIN | APP (step x completion) | PUSH (each npshd)
/// | PULL (each global entry not in L, opacity toggle respected) | CMT |
/// backward UNAPP / UNPUSH / UNPULL.  Candidates are *attempts*: whether
/// one is enabled is decided by firing it (rejections never mutate).
void enumerateCandidates(const PushPullMachine &M,
                         const ExplorerConfig &Config,
                         ArenaVec<Candidate> &Out) {
  auto FP = [](RuleKind K) {
    RuleFootprint R = ruleFootprint(K);
    FiringFootprint F;
    F.ReadsG = R.ReadsGlobal;
    F.WritesG = R.WritesGlobal;
    return F;
  };
  const FiringFootprint Local; // BEGIN and the local rules.

  for (const ThreadState &Th : M.threads()) {
    TxId T = Th.Tid;

    if (!Th.InTx) {
      if (!Th.Pending.empty())
        Out.push_back({{T, FiringKind::Begin, 0, 0}, Local});
      continue;
    }

    for (const AppChoice &Choice : M.appChoices(T))
      for (size_t CI = 0; CI < Choice.Completions.size(); ++CI)
        Out.push_back({{T, FiringKind::App,
                        static_cast<uint32_t>(Choice.StepIdx),
                        static_cast<uint32_t>(CI)},
                       Local});

    for (size_t I : Th.L.indicesOf(LocalKind::NotPushed)) {
      FiringFootprint PushFP = FP(RuleKind::Push);
      // The commutativity refinement needs the interned key of the
      // operation this push would publish; only intern when an oracle is
      // actually in play.
      if (Config.CommutDB)
        PushFP.OpKey = M.spec().table().opKey(Th.L[I].Op);
      Out.push_back(
          {{T, FiringKind::Push, static_cast<uint32_t>(I), 0}, PushFP});
    }

    size_t GI = 0;
    for (const GlobalEntry &GE : M.global().entries()) {
      size_t Idx = GI++;
      if (Th.L.contains(GE.Op.Id))
        continue;
      if (!Config.ExploreUncommittedPulls &&
          GE.Kind == GlobalKind::Uncommitted)
        continue;
      FiringFootprint PullFP = FP(RuleKind::Pull);
      PullFP.PullOwner = GE.Owner;
      PullFP.PullCommitted = GE.Kind == GlobalKind::Committed;
      Out.push_back(
          {{T, FiringKind::Pull, static_cast<uint32_t>(Idx), 0}, PullFP});
    }

    Out.push_back({{T, FiringKind::Commit, 0, 0}, FP(RuleKind::Commit)});

    if (Config.ExploreBackwardRules) {
      Out.push_back({{T, FiringKind::UnApp, 0, 0}, Local});
      for (size_t I : Th.L.indicesOf(LocalKind::Pushed))
        Out.push_back(
            {{T, FiringKind::UnPush, static_cast<uint32_t>(I), 0},
             FP(RuleKind::UnPush)});
      for (size_t I : Th.L.indicesOf(LocalKind::Pulled))
        Out.push_back(
            {{T, FiringKind::UnPull, static_cast<uint32_t>(I), 0}, Local});
    }
  }
}

/// The visited set: configuration key -> the shallowest depth the
/// configuration was explored at and the intersection of the sleep sets
/// it was explored with.  A revisit is pruned only if it is no shallower
/// *and* its sleep set is a superset of the stored one (it could not
/// explore any transition the stored visits did not); otherwise it
/// re-explores and the entry absorbs it.  This is the classical sleep
/// sets + state-caching protocol; with empty sleep sets
/// (Reduction::None) it degenerates to the depth-only rule.
///
/// Keys are numbered densely by a KeyTable; depths, and sleep sets only
/// when the mode uses them, live in arrays indexed by that number, so an
/// entry costs its key bytes plus a few words, and no pointer into the
/// arrays is held while they may grow.
class VisitedSet {
public:
  struct Claim {
    bool Fresh;   ///< First time this configuration was ever seen.
    bool Explore; ///< Caller should expand its successors.
  };

  /// Record a visit of \p Key at \p Depth with \p Sleep.
  Claim claim(std::string_view Key, size_t Depth, const SleepSet &Sleep,
              bool UseSleep) {
    KeyTable<>::Insert In = Keys.insert(Key);
    if (In.Fresh) {
      Depths.push_back(Depth);
      if (UseSleep)
        Sleeps.push_back(Sleep);
      return {true, true};
    }
    size_t &StoredDepth = Depths[In.Index];
    bool Shallower = Depth < StoredDepth;
    bool SleepCovered = !UseSleep || Sleep.supersetOf(Sleeps[In.Index]);
    if (!Shallower && SleepCovered)
      return {false, false};
    // Previously reached only deeper (with part of its subtree possibly
    // depth-pruned) or with a narrower frontier (part of it sleep-pruned):
    // re-explore from here.  The per-config accounting (visit count,
    // invariants, terminal verdicts) already happened on the first visit.
    StoredDepth = std::min(StoredDepth, Depth);
    if (UseSleep)
      Sleeps[In.Index].intersectWith(Sleep);
    return {false, true};
  }

private:
  KeyTable<> Keys;
  std::vector<size_t> Depths;
  /// Empty unless the reduction uses sleep sets.
  std::vector<SleepSet> Sleeps;
};

/// Committed-content key -> commit-order oracle verdict.  The verdict is a
/// pure function of the commit-ordered transaction bodies/stacks and the
/// committed shared log, so distinct terminal configurations with
/// identical committed content share one atomic-machine search.
class VerdictMemo {
public:
  /// Oracle.checkCommitOrder(M), run once per distinct committed content.
  /// The reference is valid until the next call.
  const SerializabilityVerdict &verdict(SerializabilityChecker &Oracle,
                                        const PushPullMachine &M) {
    committedContentKey(M, M.spec().table(), KeyBuf);
    KeyTable<>::Insert In = Keys.insert(KeyBuf);
    if (In.Fresh)
      Verdicts.push_back(Oracle.checkCommitOrder(M));
    return Verdicts[In.Index];
  }

private:
  KeyTable<> Keys;
  std::vector<SerializabilityVerdict> Verdicts;
  std::string KeyBuf;
};

} // namespace

/// The state of one explore() call.
struct Explorer::Search {
  explicit Search(const SequentialSpec &Spec) : Oracle(Spec) {}

  VisitedSet Visited;
  SerializabilityChecker Oracle;
  VerdictMemo Memo;
  std::string KeyBuf;
  /// Candidate enumeration scratch, rewound after every expansion, so
  /// steady-state enumeration performs no heap allocation at all.
  Arena Candidates;
  ExplorerReport Report;
};

Explorer::Explorer(const SequentialSpec &Spec, MoverChecker &Movers,
                   ExplorerConfig Config)
    : Spec(Spec), Movers(Movers), Config(Config) {}

void Explorer::canonicalKey(const PushPullMachine &M, SleepSet &Sleep,
                            uint64_t &SymmetryHits, std::string &Out) const {
  const CommutativityOracle *DB = Config.CommutDB;
  // Sleep sets travel in raw G-index space (stable across independent
  // firings); the visited set compares them in canonical space, so under
  // the commutativity quotient the PULL indices are rewritten through the
  // G order actually used for the key — after the thread relabeling when
  // symmetry also applies (relabeled touches tids only, so the two
  // rewrites commute, but the order used must be the one of the winning
  // permutation's rendering).
  if (Perms.size() <= 1) {
    if (!DB) {
      M.configKeyInto(Out);
      return;
    }
    SmallVec<uint32_t, 16> Order;
    M.configKeyInto(Out, nullptr, DB, &Order);
    Sleep = Sleep.reindexedG(Order);
    return;
  }
  size_t BestPi = 0;
  SmallVec<uint32_t, 16> Order;
  M.configKeyCanonicalInto(Out, Perms, BestPi, DB, DB ? &Order : nullptr);
  if (BestPi != 0) {
    ++SymmetryHits;
    Sleep = Sleep.relabeled(Perms[BestPi]);
  }
  if (DB)
    Sleep = Sleep.reindexedG(Order);
}

ExplorerReport
Explorer::explore(const std::vector<std::vector<CodePtr>> &Programs) {
  // The explorer reads the trace only when rendering a failing terminal;
  // recording it would cost a chain append and a rollback per applied
  // rule.
  MachineConfig MC = Config.Machine;
  MC.RecordTrace = false;
  PushPullMachine M(Spec, Movers, MC);
  for (const auto &P : Programs)
    M.addThread(P);

  Perms.clear();
  if (usesSymmetry(Config.Reduce))
    Perms = symmetryGroup(Programs);

  Search S(Spec);
  visit(S, M, 0, SleepSet());
  return std::move(S.Report);
}

bool Explorer::enter(Search &S, const PushPullMachine &M, size_t Depth,
                     const SleepSet &Sleep) {
  ExplorerReport &R = S.Report;
  if (R.ConfigsVisited >= Config.MaxConfigs || Depth > Config.MaxDepth) {
    R.Truncated = true;
    return false;
  }
  // Under symmetry, key and sleep set move to the canonical labeling so
  // entries stored by isomorphic configurations compare like with like.
  SleepSet StoredSleep = Sleep;
  canonicalKey(M, StoredSleep, R.SymmetryHits, S.KeyBuf);
  VisitedSet::Claim C = S.Visited.claim(S.KeyBuf, Depth, StoredSleep,
                                        usesSleepSets(Config.Reduce));
  if (!C.Explore)
    return false;
  if (C.Fresh) {
    ++R.ConfigsVisited;
    if (Config.CheckInvariants)
      for (const ThreadState &Th : M.threads()) {
        InvariantReport IR = checkAllInvariants(Th, M.global(), Movers);
        if (!IR.Holds) {
          ++R.InvariantViolations;
          if (R.FirstFailure.empty())
            R.FirstFailure = IR.Which + ": " + IR.Detail;
        }
      }
  }

  if (!M.quiescent())
    return true;
  if (!C.Fresh)
    return false;
  ++R.TerminalConfigs;
  if (Config.OnTerminal)
    Config.OnTerminal(M);
  if (Config.SkipOracle) {
    // The program was statically proved serializable; the per-terminal
    // replay is certified redundant.
    ++R.OracleSkips;
    return false;
  }
  const SerializabilityVerdict &V = S.Memo.verdict(S.Oracle, M);
  if (V.Serializable != Tri::Yes) {
    ++R.NonSerializable;
    if (R.FirstFailure.empty()) {
      R.FirstFailure =
          "non-serializable terminal: " + V.Detail + "\n" + M.toString();
      for (const CommittedTx &Cm : M.committed())
        R.FirstFailure += "  commit[" + std::to_string(Cm.CommitSeq) +
                          "] t" + std::to_string(Cm.Tid) + ": " +
                          printCode(Cm.Body) + " start=" +
                          Cm.Sigma.toString() + " final=" +
                          Cm.FinalSigma.toString() + "\n";
      R.FirstFailure += "  trace:\n" + M.trace().toString();
    }
  }
  return false;
}

/// Sleep-set protocol: candidates are explored in canonical order; a
/// candidate already in the accumulated sleep set (the inherited set plus
/// the *applied* earlier siblings) is pruned — it was fired at an
/// ancestor and only firings independent of it happened since, so its
/// subtree here is a commutation of one already explored.  Rejected
/// candidates are never added to the accumulator: a later sibling's
/// subtree may *enable* them, and those subtrees must not prune them.
/// The child of firing C inherits the accumulated members independent of
/// C (their firing identities are stable across C: no independent firing
/// reorders another thread's local log or removes global entries).
void Explorer::visit(Search &S, PushPullMachine &M, size_t Depth,
                     const SleepSet &Sleep) {
  if (!enter(S, M, Depth, Sleep))
    return;
  ExplorerReport &R = S.Report;
  Arena::Scope CandScope(S.Candidates);
  ArenaVec<Candidate> Cands(S.Candidates);
  enumerateCandidates(M, Config, Cands);

  if (usesPersistentSets(Config.Reduce)) {
    size_t Dropped = restrictToPersistent(Cands);
    if (Dropped) {
      R.FiringsPruned += Dropped;
      ++R.PersistentCuts;
    }
  }

  const bool UseSleep = usesSleepSets(Config.Reduce);
  SleepSet Accum = Sleep;

  for (const Candidate &C : Cands) {
    if (UseSleep && Accum.contains(C.F)) {
      ++R.FiringsPruned;
      continue;
    }
    PushPullMachine::UndoMark Mark = M.mark();
    if (applyFiring(M, C.F)) {
      ++R.RuleApplications;
      SleepSet ChildSleep =
          UseSleep ? Accum.survivorsAfter(C, Config.CommutDB) : SleepSet();
      visit(S, M, Depth + 1, ChildSleep);
      if (UseSleep)
        Accum.insert(C);
    } else if (C.F.Kind != FiringKind::Begin) {
      // Guarded begin cannot fail, so it never counts as rejected.
      ++R.RejectedAttempts;
    }
    M.rollbackTo(Mark);
  }
}

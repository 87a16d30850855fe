//===- sim/Explorer.cpp - Exhaustive interleaving explorer ------------------===//

#include "sim/Explorer.h"

#include "core/Invariants.h"
#include "lang/Printer.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>

using namespace pushpull;

namespace {

/// Render into \p Key everything the commit-order oracle looks at — the
/// commit-ordered transactions (body, start/final stacks) and the committed
/// shared log.  Two machines with equal keys get identical verdicts from
/// SerializabilityChecker::checkCommitOrder, which is deterministic in
/// that content, so verdicts can be memoized per explorer (or per worker).
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

/// The candidate scratch arena: one per explorer worker thread, rewound
/// by expandReduced's scope after every expansion, so steady-state
/// candidate enumeration performs no heap allocation at all.
thread_local Arena CandidateArena;

/// Enumerate every candidate move from \p M as a (firing, footprint)
/// pair, in the canonical rule order the sequential DFS has always used:
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
      // actually in play (the table is internally synchronized).
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

/// The counters expandReduced accounts into (plain references so the
/// sequential engine passes report fields and workers pass locals).
struct ExpandCounters {
  uint64_t &RuleApplications;
  uint64_t &RejectedAttempts;
  uint64_t &FiringsPruned;
  uint64_t &PersistentCuts;
};

/// Expand the successors of \p M under the configured reduction.  \p Emit
/// receives each successor machine together with its sleep set.  Shared
/// by the sequential and parallel engines so their enumeration (and thus
/// their visited closure) is identical per reduction mode.
///
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
template <typename Emit>
void expandReduced(const PushPullMachine &M, const ExplorerConfig &Config,
                   const SleepSet &Sleep, ExpandCounters Ctr,
                   Emit &&EmitNext) {
  Arena::Scope CandScope(CandidateArena);
  ArenaVec<Candidate> Cands(CandidateArena);
  enumerateCandidates(M, Config, Cands);

  if (usesPersistentSets(Config.Reduce)) {
    size_t Dropped = restrictToPersistent(Cands);
    if (Dropped) {
      Ctr.FiringsPruned += Dropped;
      ++Ctr.PersistentCuts;
    }
  }

  const bool UseSleep = usesSleepSets(Config.Reduce);
  SleepSet Accum = Sleep;

  // Rejected rule attempts never mutate the machine (the Machine.h
  // contract: schedulers may probe moves freely), so one scratch copy of
  // M is reused across consecutive rejections; only an applied rule
  // consumes it.  This turns "one machine copy per attempt" into "one
  // per applied rule plus one", and rejections outnumber applications by
  // an order of magnitude on typical scopes.
  std::optional<PushPullMachine> Scratch;
  for (const Candidate &C : Cands) {
    if (UseSleep && Accum.contains(C.F)) {
      ++Ctr.FiringsPruned;
      continue;
    }
    if (!Scratch)
      Scratch.emplace(M);
    if (applyFiring(*Scratch, C.F)) {
      ++Ctr.RuleApplications;
      SleepSet ChildSleep =
          UseSleep ? Accum.survivorsAfter(C, Config.CommutDB) : SleepSet();
      EmitNext(std::move(*Scratch), std::move(ChildSleep));
      Scratch.reset();
      if (UseSleep)
        Accum.insert(C);
    } else if (C.F.Kind != FiringKind::Begin) {
      // Guarded begin cannot fail, so it never counts as rejected.
      ++Ctr.RejectedAttempts;
    }
  }
}

/// One unit of parallel work: a configuration, the depth it was reached
/// at, and the sleep set it inherited from its parent's expansion.
struct WorkItem {
  PushPullMachine M;
  size_t Depth;
  SleepSet Sleep;
};

} // namespace

Explorer::VisitedSet::Claim
Explorer::VisitedSet::claim(std::string_view Key, uint64_t H, size_t Depth,
                            const SleepSet &Sleep, bool UseSleep) {
  KeyTable<>::Insert In = Keys.insert(Key, H);
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

void Explorer::VisitedSet::clear() {
  Keys.clear();
  Depths.clear();
  Sleeps.clear();
}

/// The parallel engine's visited set: VisitedSets sharded by the high bits
/// of the key hash, each under its own mutex.  Same protocol as the
/// sequential set (the first claim is "fresh" and does the per-config
/// accounting; a later claim re-explores — without re-accounting — iff it
/// is shallower or its sleep set would explore a transition every stored
/// visit pruned).
class Explorer::ShardedVisited {
public:
  VisitedSet::Claim claim(std::string_view Key, size_t Depth,
                          const SleepSet &Sleep, bool UseSleep) {
    uint64_t H = KeyTable<>::hash(Key);
    Shard &S = Shards[H >> (64 - ShardBits)];
    std::lock_guard<std::mutex> Lock(S.Mutex);
    return S.Set.claim(Key, H, Depth, Sleep, UseSleep);
  }

private:
  static constexpr unsigned ShardBits = 6;
  struct Shard {
    std::mutex Mutex;
    VisitedSet Set;
  };
  Shard Shards[size_t{1} << ShardBits];
};

const SerializabilityVerdict &
Explorer::VerdictMemo::verdict(SerializabilityChecker &Oracle,
                               const PushPullMachine &M) {
  committedContentKey(M, M.spec().table(), KeyBuf);
  KeyTable<>::Insert In = Keys.insert(KeyBuf);
  if (In.Fresh)
    Verdicts.push_back(Oracle.checkCommitOrder(M));
  return Verdicts[In.Index];
}

Explorer::Explorer(const SequentialSpec &Spec, MoverChecker &Movers,
                   ExplorerConfig Config)
    : Spec(Spec), Movers(Movers), Config(Config), Oracle(Spec) {}

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
  // recording it would cost a chain append per applied rule and a chain
  // share per successor copy.
  MachineConfig MC = Config.Machine;
  MC.RecordTrace = false;
  PushPullMachine M(Spec, Movers, MC);
  for (const auto &P : Programs)
    M.addThread(P);

  Perms.clear();
  if (usesSymmetry(Config.Reduce))
    Perms = symmetryGroup(Programs);

  if (Config.Threads > 1)
    return exploreParallel(std::move(M));

  Visited.clear();
  ExplorerReport Report;
  visit(std::move(M), 0, SleepSet(), Report);
  return Report;
}

void Explorer::visit(PushPullMachine M, size_t Depth, SleepSet Sleep,
                     ExplorerReport &Report) {
  if (Report.ConfigsVisited >= Config.MaxConfigs || Depth > Config.MaxDepth) {
    Report.Truncated = true;
    return;
  }
  // Under symmetry, key and sleep set move to the canonical labeling so
  // entries stored by isomorphic configurations compare like with like.
  SleepSet StoredSleep = Sleep;
  canonicalKey(M, StoredSleep, Report.SymmetryHits, KeyBuf);
  VisitedSet::Claim C =
      Visited.claim(KeyBuf, KeyTable<>::hash(KeyBuf), Depth, StoredSleep,
                    usesSleepSets(Config.Reduce));
  if (!C.Explore)
    return;
  const bool Fresh = C.Fresh;
  if (Fresh)
    ++Report.ConfigsVisited;

  if (Config.CheckInvariants && Fresh) {
    for (const ThreadState &Th : M.threads()) {
      InvariantReport IR = checkAllInvariants(Th, M.global(), Movers);
      if (!IR.Holds) {
        ++Report.InvariantViolations;
        if (Report.FirstFailure.empty())
          Report.FirstFailure = IR.Which + ": " + IR.Detail;
      }
    }
  }

  if (M.quiescent()) {
    if (!Fresh)
      return;
    ++Report.TerminalConfigs;
    if (Config.OnTerminal)
      Config.OnTerminal(M);
    if (Config.SkipOracle) {
      // The program was statically proved serializable; the per-terminal
      // replay is certified redundant.
      ++Report.OracleSkips;
      return;
    }
    const SerializabilityVerdict &V = OracleMemo.verdict(Oracle, M);
    if (V.Serializable != Tri::Yes) {
      ++Report.NonSerializable;
      if (Report.FirstFailure.empty()) {
        Report.FirstFailure =
            "non-serializable terminal: " + V.Detail + "\n" + M.toString();
        for (const CommittedTx &C : M.committed())
          Report.FirstFailure += "  commit[" + std::to_string(C.CommitSeq) +
                                 "] t" + std::to_string(C.Tid) + ": " +
                                 printCode(C.Body) + " start=" +
                                 C.Sigma.toString() + " final=" +
                                 C.FinalSigma.toString() + "\n";
        Report.FirstFailure += "  trace:\n" + M.trace().toString();
      }
    }
    return;
  }

  expandReduced(M, Config, Sleep,
                ExpandCounters{Report.RuleApplications,
                               Report.RejectedAttempts, Report.FiringsPruned,
                               Report.PersistentCuts},
                [&](PushPullMachine Next, SleepSet NextSleep) {
                  visit(std::move(Next), Depth + 1, std::move(NextSleep),
                        Report);
                });
}

ExplorerReport Explorer::exploreParallel(PushPullMachine Root) {
  struct SharedState {
    std::mutex QueueMutex;
    std::condition_variable QueueCV;
    std::vector<WorkItem> Stack; // LIFO: depth-first-ish, bounded frontier.
    size_t ActiveWorkers = 0;

    ShardedVisited Visited;
    std::atomic<uint64_t> ConfigsVisited{0}, TerminalConfigs{0};
    std::atomic<uint64_t> RuleApplications{0}, RejectedAttempts{0};
    std::atomic<uint64_t> NonSerializable{0}, InvariantViolations{0};
    std::atomic<uint64_t> FiringsPruned{0}, PersistentCuts{0};
    std::atomic<uint64_t> SymmetryHits{0}, OracleSkips{0};
    std::atomic<bool> Truncated{false};

    std::mutex FailureMutex;
    std::string FirstFailure;

    std::mutex TerminalMutex; ///< Serializes the OnTerminal hook.
  } Shared;

  const bool UseSleep = usesSleepSets(Config.Reduce);
  Shared.Stack.push_back(WorkItem{std::move(Root), 0, SleepSet()});

  auto Worker = [&]() {
    // Worker-local checkers: verdicts are cache-independent, so private
    // caches are sound; the expensive denotation steps are still shared
    // across workers through the spec's interning table.
    MoverChecker WorkerMovers(Spec, Movers.limits(),
                              Movers.precongruence().limits());
    SerializabilityChecker WorkerOracle(Spec);
    VerdictMemo WorkerMemo;
    std::string KeyBuf;
    std::vector<WorkItem> Children;

    auto RecordFailure = [&](const std::string &Text) {
      std::lock_guard<std::mutex> Lock(Shared.FailureMutex);
      if (Shared.FirstFailure.empty())
        Shared.FirstFailure = Text;
    };

    for (;;) {
      std::optional<WorkItem> Item;
      {
        std::unique_lock<std::mutex> Lock(Shared.QueueMutex);
        Shared.QueueCV.wait(Lock, [&] {
          return !Shared.Stack.empty() || Shared.ActiveWorkers == 0;
        });
        if (Shared.Stack.empty())
          return; // No work anywhere and nobody producing: done.
        Item.emplace(std::move(Shared.Stack.back()));
        Shared.Stack.pop_back();
        ++Shared.ActiveWorkers;
      }

      Children.clear();
      PushPullMachine &M = Item->M;
      size_t Depth = Item->Depth;
      M.setMovers(WorkerMovers);

      if (Shared.ConfigsVisited.load(std::memory_order_relaxed) >=
              Config.MaxConfigs ||
          Depth > Config.MaxDepth) {
        Shared.Truncated.store(true, std::memory_order_relaxed);
      } else {
        uint64_t Hits = 0;
        SleepSet StoredSleep = Item->Sleep;
        canonicalKey(M, StoredSleep, Hits, KeyBuf);
        if (Hits)
          Shared.SymmetryHits.fetch_add(Hits, std::memory_order_relaxed);
        VisitedSet::Claim C =
            Shared.Visited.claim(KeyBuf, Depth, StoredSleep, UseSleep);
        // A fresh configuration takes its budget slot here; racing workers
        // may all have passed the check above, so a slot past the budget
        // truncates instead of counting or expanding.
        if (C.Fresh && Shared.ConfigsVisited.fetch_add(
                           1, std::memory_order_relaxed) >= Config.MaxConfigs) {
          Shared.Truncated.store(true, std::memory_order_relaxed);
        } else if (C.Explore) {
          if (Config.CheckInvariants && C.Fresh) {
            for (const ThreadState &Th : M.threads()) {
              InvariantReport IR =
                  checkAllInvariants(Th, M.global(), WorkerMovers);
              if (!IR.Holds) {
                Shared.InvariantViolations.fetch_add(
                    1, std::memory_order_relaxed);
                RecordFailure(IR.Which + ": " + IR.Detail);
              }
            }
          }

          if (M.quiescent()) {
            if (C.Fresh) {
              Shared.TerminalConfigs.fetch_add(1, std::memory_order_relaxed);
              if (Config.OnTerminal) {
                std::lock_guard<std::mutex> Lock(Shared.TerminalMutex);
                Config.OnTerminal(M);
              }
              if (Config.SkipOracle) {
                Shared.OracleSkips.fetch_add(1, std::memory_order_relaxed);
              } else {
                const SerializabilityVerdict &V =
                    WorkerMemo.verdict(WorkerOracle, M);
                if (V.Serializable != Tri::Yes) {
                  Shared.NonSerializable.fetch_add(1,
                                                   std::memory_order_relaxed);
                  std::string Text = "non-serializable terminal: " +
                                     V.Detail + "\n" + M.toString();
                  for (const CommittedTx &Cm : M.committed())
                    Text += "  commit[" + std::to_string(Cm.CommitSeq) +
                            "] t" + std::to_string(Cm.Tid) + ": " +
                            printCode(Cm.Body) + " start=" +
                            Cm.Sigma.toString() + " final=" +
                            Cm.FinalSigma.toString() + "\n";
                  Text += "  trace:\n" + M.trace().toString();
                  RecordFailure(Text);
                }
              }
            }
          } else {
            uint64_t Applied = 0, Rejected = 0, Pruned = 0, Cuts = 0;
            expandReduced(M, Config, Item->Sleep,
                          ExpandCounters{Applied, Rejected, Pruned, Cuts},
                          [&](PushPullMachine Next, SleepSet NextSleep) {
                            Children.push_back(WorkItem{std::move(Next),
                                                        Depth + 1,
                                                        std::move(NextSleep)});
                          });
            Shared.RuleApplications.fetch_add(Applied,
                                              std::memory_order_relaxed);
            Shared.RejectedAttempts.fetch_add(Rejected,
                                              std::memory_order_relaxed);
            if (Pruned)
              Shared.FiringsPruned.fetch_add(Pruned,
                                             std::memory_order_relaxed);
            if (Cuts)
              Shared.PersistentCuts.fetch_add(Cuts,
                                              std::memory_order_relaxed);
          }
        }
      }

      {
        std::lock_guard<std::mutex> Lock(Shared.QueueMutex);
        for (WorkItem &C : Children)
          Shared.Stack.push_back(std::move(C));
        --Shared.ActiveWorkers;
      }
      Shared.QueueCV.notify_all();
    }
  };

  std::vector<std::thread> Pool;
  Pool.reserve(Config.Threads);
  for (unsigned I = 0; I < Config.Threads; ++I)
    Pool.emplace_back(Worker);
  for (std::thread &T : Pool)
    T.join();

  ExplorerReport Report;
  // Slots taken past the budget were not counted.
  Report.ConfigsVisited =
      std::min<uint64_t>(Shared.ConfigsVisited.load(), Config.MaxConfigs);
  Report.TerminalConfigs = Shared.TerminalConfigs.load();
  Report.RuleApplications = Shared.RuleApplications.load();
  Report.RejectedAttempts = Shared.RejectedAttempts.load();
  Report.NonSerializable = Shared.NonSerializable.load();
  Report.InvariantViolations = Shared.InvariantViolations.load();
  Report.FiringsPruned = Shared.FiringsPruned.load();
  Report.PersistentCuts = Shared.PersistentCuts.load();
  Report.SymmetryHits = Shared.SymmetryHits.load();
  Report.OracleSkips = Shared.OracleSkips.load();
  Report.Truncated = Shared.Truncated.load();
  Report.FirstFailure = std::move(Shared.FirstFailure);
  return Report;
}

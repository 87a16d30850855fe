//===- analysis/MoverTable.cpp - Certified mover tables + prover ------------===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "analysis/MoverTable.h"

#include "core/Machine.h"
#include "lang/Ast.h"
#include "tm/Engine.h"

#include <algorithm>
#include <map>
#include <unordered_set>

using namespace pushpull;

std::string pushpull::toString(PairPredicate P) {
  switch (P) {
  case PairPredicate::Always:
    return "always";
  case PairPredicate::Never:
    return "never";
  case PairPredicate::DistinctArg0:
    return "distinct-arg0";
  case PairPredicate::EqualArg0:
    return "equal-arg0";
  case PairPredicate::Mixed:
    return "mixed";
  }
  return "?";
}

std::string pushpull::toString(ProveResult::Verdict V) {
  switch (V) {
  case ProveResult::Verdict::Proved:
    return "PROVED";
  case ProveResult::Verdict::Conflict:
    return "CONFLICT";
  case ProveResult::Verdict::Unproved:
    return "UNPROVED";
  }
  return "?";
}

/// "bank.deposit(0, 1)=1"-style display name of a probe instance.
static std::string probeName(const Operation &Op) {
  std::string S = Op.Call.toString();
  if (Op.Result)
    S += "=" + std::to_string(*Op.Result);
  return S;
}

MoverTable MoverTable::build(const SequentialSpec &Spec,
                             MoverChecker &Movers) {
  MoverTable T;
  T.Probes = Spec.probes();
  const ReachableFamily &F = Movers.family();
  T.FamilyExact = F.Exact;
  T.FamilySize = F.Sets.size();

  size_t N = T.Probes.size();
  T.Entries.reserve(N * (N + 1) / 2);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = I; J < N; ++J)
      T.Entries.push_back({I, J, classifyPair(Spec, Movers, I, J)});
  // certifyPair replays one certificate per pair over an exact family.
  T.CertChecks = F.Exact ? T.Entries.size() : 0;

  // Method-pair summaries with argument-predicate refinement.  The
  // identical-instance diagonal (I == J) is excluded: [[S.A.A]] trivially
  // equals itself in both "orders" and carries no ordering information.
  struct Group {
    MethodPairSummary Sum;
    bool DistinctHolds = true, EqualHolds = true, ArgPredApplies = true;
  };
  std::map<std::string, Group> Groups;
  for (const Entry &E : T.Entries) {
    if (E.AIdx == E.BIdx)
      continue;
    const Operation &A1 = T.Probes[E.AIdx], &B1 = T.Probes[E.BIdx];
    std::string SigA = A1.Call.Object + "." + A1.Call.Method;
    std::string SigB = B1.Call.Object + "." + B1.Call.Method;
    const Operation *PA = &A1, *PB = &B1;
    if (SigB < SigA) {
      std::swap(SigA, SigB);
      std::swap(PA, PB);
    }
    Group &G = Groups[SigA + " x " + SigB];
    if (G.Sum.TotalPairs == 0) {
      G.Sum.ObjectA = PA->Call.Object;
      G.Sum.MethodA = PA->Call.Method;
      G.Sum.ObjectB = PB->Call.Object;
      G.Sum.MethodB = PB->Call.Method;
    }
    ++G.Sum.TotalPairs;
    if (E.V.Strong)
      ++G.Sum.StrongPairs;
    ++G.Sum.ClassCounts[static_cast<int>(E.V.Class)];
    if (PA->Call.Args.empty() || PB->Call.Args.empty()) {
      G.ArgPredApplies = false;
    } else {
      // Sufficiency direction only: "distinct-arg0" claims distinct first
      // arguments imply strong commutation (equal-argument pairs may still
      // commute vacuously when their guards are jointly unsatisfiable).
      bool Distinct = PA->Call.Args[0] != PB->Call.Args[0];
      if (Distinct && !E.V.Strong)
        G.DistinctHolds = false;
      if (!Distinct && !E.V.Strong)
        G.EqualHolds = false;
    }
  }
  for (auto &KV : Groups) {
    Group &G = KV.second;
    if (G.Sum.StrongPairs == G.Sum.TotalPairs)
      G.Sum.Pred = PairPredicate::Always;
    else if (G.Sum.StrongPairs == 0)
      G.Sum.Pred = PairPredicate::Never;
    else if (G.ArgPredApplies && G.DistinctHolds)
      G.Sum.Pred = PairPredicate::DistinctArg0; // and some equal pair fails
    else if (G.ArgPredApplies && G.EqualHolds)
      G.Sum.Pred = PairPredicate::EqualArg0; // and some distinct pair fails
    else
      G.Sum.Pred = PairPredicate::Mixed;
    T.Summaries.push_back(G.Sum);
  }
  return T;
}

std::string MoverTable::toString() const {
  std::string Out = "probes=" + std::to_string(Probes.size()) +
                    " family=" + std::to_string(FamilySize) + " sets (" +
                    (FamilyExact ? "exact" : "bounded") +
                    ") cert-checks=" + std::to_string(CertChecks) + "\n";
  for (const MethodPairSummary &S : Summaries) {
    std::string Pair = S.ObjectA + "." + S.MethodA + " x " + S.ObjectB + "." +
                       S.MethodB;
    Pair.resize(std::max<size_t>(Pair.size(), 36), ' ');
    std::string Pred = pushpull::toString(S.Pred);
    Pred.resize(std::max<size_t>(Pred.size(), 14), ' ');
    Out += "  " + Pair + Pred + std::to_string(S.StrongPairs) + "/" +
           std::to_string(S.TotalPairs) + " strong  [";
    static const MoverClass Classes[] = {MoverClass::Both, MoverClass::Left,
                                         MoverClass::Right, MoverClass::Non};
    bool First = true;
    for (MoverClass C : Classes) {
      size_t N = S.ClassCounts[static_cast<int>(C)];
      if (!N)
        continue;
      if (!First)
        Out += " ";
      First = false;
      Out += pushpull::toString(C) + "=" + std::to_string(N);
    }
    Out += "]\n";
  }
  return Out;
}

CommutativityDB::CommutativityDB(const SequentialSpec &Spec,
                                 size_t MaxReachableSets)
    : Spec(Spec), Movers(Spec, MoverLimits{MaxReachableSets}) {
  const std::vector<OpKeyId> &Keys = Spec.probeKeys();
  for (size_t I = 0; I < Keys.size(); ++I)
    ProbeOf.emplace(Keys[I], I);
}

bool CommutativityDB::stronglyCommute(OpKeyId A, OpKeyId B) const {
  auto IA = ProbeOf.find(A), IB = ProbeOf.find(B);
  bool Ans = IA != ProbeOf.end() && IB != ProbeOf.end() &&
             strongByProbeIndex(IA->second, IB->second);
  (Ans ? Hits : Misses).fetch_add(1, std::memory_order_relaxed);
  return Ans;
}

uint64_t CommutativityDB::certChecks() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return CertChecks;
}

bool CommutativityDB::strongByProbeIndex(size_t AIdx, size_t BIdx,
                                         PairCertificate *CertOut) const {
  uint64_t Key = (static_cast<uint64_t>(std::min(AIdx, BIdx)) << 32) |
                 std::max(AIdx, BIdx);
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Memo.find(Key);
  if (It == Memo.end()) {
    const ReachableFamily &F = Movers.family();
    PairEntry E;
    E.Strong = certifyPair(Spec, F, AIdx, BIdx, E.Cert);
    if (F.Exact)
      ++CertChecks;
    It = Memo.emplace(Key, std::move(E)).first;
  }
  if (CertOut)
    *CertOut = It->second.Cert;
  return It->second.Strong;
}

namespace {

/// Walk a code tree collecting every method call.  Returns false (and
/// explains) when a call has a non-literal argument — such calls cannot be
/// statically matched against the probe alphabet.
bool collectCalls(const CodePtr &C, std::vector<const MethodExpr *> &Out,
                  std::string &Why) {
  if (!C)
    return true;
  switch (C->kind()) {
  case CodeKind::Skip:
    return true;
  case CodeKind::Call:
    for (const Arg &A : C->call().Args)
      if (!std::holds_alternative<Value>(A)) {
        Why = "call '" + C->call().toString() +
              "' has non-literal argument '" + std::get<std::string>(A) +
              "'";
        return false;
      }
    Out.push_back(&C->call());
    return true;
  case CodeKind::Seq:
  case CodeKind::Choice:
    return collectCalls(C->lhs(), Out, Why) &&
           collectCalls(C->rhs(), Out, Why);
  case CodeKind::Loop:
  case CodeKind::Tx:
    return collectCalls(C->body(), Out, Why);
  }
  return true;
}

/// Does probe call \p P match the literal call \p Call?
bool callMatches(const ResolvedCall &P, const MethodExpr &Call) {
  if (P.Object != Call.Object || P.Method != Call.Method ||
      P.Args.size() != Call.Args.size())
    return false;
  for (size_t K = 0; K < P.Args.size(); ++K)
    if (P.Args[K] != std::get<Value>(Call.Args[K]))
      return false;
  return true;
}

/// Resolve every call of one thread's transactions to the probe instances
/// of \p Spec it may denote: each matching probe, one per result variant
/// for result-carrying methods (which result a run observes is dynamic, so
/// every variant is an instance a proof must cover).  \p Out receives the
/// distinct instances, sorted.  False, with \p Why naming the call, when a
/// call has a non-literal argument or matches no probe instance.
bool resolveThread(const std::vector<CodePtr> &Txns,
                   const SequentialSpec &Spec, std::vector<size_t> &Out,
                   std::string &Why) {
  std::vector<const MethodExpr *> Calls;
  for (const CodePtr &Tx : Txns)
    if (!collectCalls(Tx, Calls, Why))
      return false;
  const std::vector<Operation> &Probes = Spec.probes();
  std::vector<bool> Seen(Probes.size(), false);
  for (const MethodExpr *Call : Calls) {
    bool Matched = false;
    for (size_t I = 0; I < Probes.size(); ++I)
      if (callMatches(Probes[I].Call, *Call)) {
        Matched = true;
        Seen[I] = true;
      }
    if (!Matched) {
      Why = "call '" + Call->toString() +
            "' matches no probe instance of spec '" + Spec.name() + "'";
      return false;
    }
  }
  for (size_t I = 0; I < Probes.size(); ++I)
    if (Seen[I])
      Out.push_back(I);
  return true;
}

} // namespace

bool CommutativityDB::coversProgram(
    const std::vector<std::vector<CodePtr>> &Threads,
    std::string *WhyNot) const {
  std::string Why;
  for (const std::vector<CodePtr> &Txns : Threads) {
    std::vector<size_t> Instances;
    if (!resolveThread(Txns, Spec, Instances, Why)) {
      if (WhyNot)
        *WhyNot = Why;
      return false;
    }
  }
  return true;
}

ProveResult pushpull::proveSerializable(const Scenario &S,
                                        const CommutativityDB &DB) {
  ProveResult R;
  if (!S.Spec) {
    R.Detail = "scenario has no specification";
    return R;
  }
  if (!S.DisabledCriterion.empty()) {
    R.Detail = "fault injection active ('" + S.DisabledCriterion +
               "'): machine semantics are not the paper's";
    return R;
  }

  // Echo the engine's rule surface.  The verdict itself quantifies over
  // every Figure 5 rule, so it holds for any surface; the echo documents
  // which engine the scenario will actually run.
  const EngineSurface *Claims = engineSurface(S.Engine);
  if (!Claims) {
    R.Detail = "cannot build engine: unknown engine '" + S.Engine + "'";
    return R;
  }
  std::string Rules;
  static const RuleKind Kinds[] = {
      RuleKind::App,  RuleKind::UnApp,  RuleKind::Push,  RuleKind::UnPush,
      RuleKind::Pull, RuleKind::UnPull, RuleKind::Commit};
  for (RuleKind K : Kinds)
    if (Claims->RuleMask & ruleBit(K))
      Rules += (Rules.empty() ? "" : ",") + toString(K);
  std::string Surface =
      "engine " + S.Engine + " (rules=" + Rules +
      (Claims->PullsUncommitted ? ", pulls-uncommitted" : "") + ")";

  // Resolve every call of every thread to its probe instances.
  const std::vector<Operation> &Probes = DB.probes();
  std::vector<std::vector<size_t>> InstOf(S.Threads.size());
  std::unordered_set<size_t> AllInstances;
  for (size_t T = 0; T < S.Threads.size(); ++T) {
    if (!resolveThread(S.Threads[T], *S.Spec, InstOf[T], R.Detail))
      return R;
    AllInstances.insert(InstOf[T].begin(), InstOf[T].end());
  }
  R.Instances = AllInstances.size();

  // Every cross-thread instance pair must strongly commute.  Pairs are
  // deduplicated globally; the first failure (in deterministic thread /
  // instance order) is the reported conflict.
  std::unordered_set<uint64_t> Checked;
  for (size_t T1 = 0; T1 < InstOf.size(); ++T1)
    for (size_t T2 = T1 + 1; T2 < InstOf.size(); ++T2)
      for (size_t A : InstOf[T1])
        for (size_t B : InstOf[T2]) {
          uint64_t Key = (static_cast<uint64_t>(std::min(A, B)) << 32) |
                         std::max(A, B);
          if (!Checked.insert(Key).second)
            continue;
          ++R.PairsChecked;
          PairCertificate Cert;
          if (DB.strongByProbeIndex(A, B, &Cert))
            continue;
          R.V = ProveResult::Verdict::Conflict;
          R.PairA = probeName(Probes[A]);
          R.PairB = probeName(Probes[B]);
          R.Detail = "threads " + std::to_string(T1) + "/" +
                     std::to_string(T2) + ": " + R.PairA + " x " + R.PairB;
          if (Cert.Kind == CertKind::Counterexample) {
            std::string W;
            for (const Operation &Op : Cert.Witness)
              W += (W.empty() ? "" : ".") + Op.Call.toString();
            R.Detail += W.empty() ? " (diamond fails at the initial state)"
                                  : " (diamond fails after " + W + ")";
          } else if (Cert.Kind == CertKind::Unknown) {
            R.Detail += " (family bounded out; not refuted)";
          }
          R.Detail += "; " + Surface;
          return R;
        }

  R.V = ProveResult::Verdict::Proved;
  R.Detail = std::to_string(R.Instances) + " instances, " +
             std::to_string(R.PairsChecked) +
             " cross-thread pairs certified; " + Surface;
  return R;
}

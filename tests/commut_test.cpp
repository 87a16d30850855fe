//===- tests/commut_test.cpp - Certified commutativity table battery ----------===//
//
// The mover table's verdicts gate partial-order reduction and the
// whole-program serializability prover, so a wrong "strongly commutes"
// answer would silently hide interleavings or certify racy programs.
// The battery therefore checks the full trust chain: every member of the
// reachable family (MoverChecker::family(), the one enumeration the
// certificates and the mover check share) replays from its witness
// prefix, every Strong verdict's certificate replays through the
// independent checker (and tampered certificates are rejected), Strong
// never contradicts the Definition 4.1 precongruence verdicts, strong
// pairs commute dynamically on fuzzed probe logs, the method-pair
// summaries recover the expected argument predicates, and the prover
// proves/refutes the shipped scenario pair.
//
//===----------------------------------------------------------------------===//

#include "analysis/MoverTable.h"

#include "lang/Parser.h"
#include "sim/Explorer.h"
#include "spec/BankSpec.h"
#include "spec/CounterSpec.h"
#include "spec/MapSpec.h"
#include "spec/QueueSpec.h"
#include "spec/RegisterSpec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>

using namespace pushpull;

namespace {

/// Probe index with the given method and first argument; dies if absent.
size_t probeIdx(const std::vector<Operation> &Probes,
                const std::string &Method, Value Arg0) {
  for (size_t I = 0; I < Probes.size(); ++I)
    if (Probes[I].Call.Method == Method && !Probes[I].Call.Args.empty() &&
        Probes[I].Call.Args[0] == Arg0)
      return I;
  ADD_FAILURE() << "no probe " << Method << "(" << Arg0 << ")";
  return 0;
}

Scenario parseScenarioFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  ScenarioParseResult PR = parseScenario(Buf.str());
  EXPECT_TRUE(PR.ok()) << Path << ": " << PR.Error;
  return std::move(*PR.Parsed);
}

} // namespace

// ---------------------------------------------------------------------------
// Reachable family: minimal-witness reconstruction and the bound.
// ---------------------------------------------------------------------------

TEST(ReachableFamily, WitnessPrefixesReplay) {
  std::vector<std::unique_ptr<SequentialSpec>> Specs;
  Specs.push_back(std::make_unique<RegisterSpec>("mem", 1, 2));
  Specs.push_back(std::make_unique<CounterSpec>("c", 2, 3));
  Specs.push_back(std::make_unique<MapSpec>("map", 2, 2));
  Specs.push_back(std::make_unique<QueueSpec>("q", 2, 2));
  Specs.push_back(std::make_unique<BankSpec>("bank", 2, 3, 1));
  for (const auto &Spec : Specs) {
    MoverChecker Movers(*Spec);
    const ReachableFamily &F = Movers.family();
    EXPECT_TRUE(F.Exact) << Spec->name();
    // Every member's witness prefix replays to exactly that member.
    for (size_t I = 0; I < F.Sets.size(); ++I) {
      std::vector<Operation> W = witnessPrefix(F, I, Spec->probeOps());
      EXPECT_EQ(Spec->denoteId(W), F.Sets[I]) << Spec->name() << " #" << I;
      EXPECT_LE(W.size(), F.Sets.size()) << "witness longer than BFS depth";
    }
  }
}

TEST(ReachableFamily, BoundedEnumerationIsMarkedInexact) {
  MapSpec Spec("map", 2, 2);
  MoverChecker Movers(Spec, MoverLimits{3});
  const ReachableFamily &F = Movers.family();
  EXPECT_FALSE(F.Exact);
  EXPECT_LE(F.Sets.size(), 3u);
  // An inexact family certifies nothing.
  for (size_t I = 0; I < Spec.probes().size(); ++I)
    for (size_t J = I; J < Spec.probes().size(); ++J) {
      PairCertificate Cert;
      EXPECT_FALSE(certifyPair(Spec, F, I, J, Cert));
      EXPECT_NE(Cert.Kind, CertKind::StrongDiamond);
    }
}

// ---------------------------------------------------------------------------
// Certificates: acceptance, independent re-verification, and tamper
// rejection.
// ---------------------------------------------------------------------------

TEST(Certificates, StrongDiamondVerifiesAndTamperingIsRejected) {
  CounterSpec Spec("c", 2, 3);
  MoverChecker Movers(Spec);
  const std::vector<Operation> &P = Spec.probes();
  size_t I0 = probeIdx(P, "inc", 0), I1 = probeIdx(P, "inc", 1);

  PairVerdict V = classifyPair(Spec, Movers, I0, I1);
  ASSERT_TRUE(V.Strong) << "distinct counters must strongly commute";
  ASSERT_EQ(V.Cert.Kind, CertKind::StrongDiamond);
  EXPECT_TRUE(
      verifyStrongCertificate(Spec, P[I0], P[I1], P, V.Cert).Ok);

  // The family is shared with the checker's reachable family, so each
  // tamper edits a copy.
  ASSERT_TRUE(V.Cert.Family);
  // Tamper 1: drop the initial denotation from the family.
  {
    PairCertificate T = V.Cert;
    std::vector<StateSetId> Fam = *T.Family;
    Fam.erase(std::find(Fam.begin(), Fam.end(), Spec.initialId()));
    T.Family = std::make_shared<const std::vector<StateSetId>>(Fam);
    EXPECT_FALSE(verifyStrongCertificate(Spec, P[I0], P[I1], P, T).Ok);
  }
  // Tamper 2: drop a non-initial member (closure must now fail).
  {
    PairCertificate T = V.Cert;
    std::vector<StateSetId> Fam = *T.Family;
    ASSERT_GT(Fam.size(), 1u);
    Fam.pop_back();
    T.Family = std::make_shared<const std::vector<StateSetId>>(Fam);
    EXPECT_FALSE(verifyStrongCertificate(Spec, P[I0], P[I1], P, T).Ok);
  }
  // Tamper 3: break the sortedness invariant.
  {
    PairCertificate T = V.Cert;
    std::vector<StateSetId> Fam = *T.Family;
    ASSERT_GT(Fam.size(), 1u);
    std::swap(Fam.front(), Fam.back());
    T.Family = std::make_shared<const std::vector<StateSetId>>(Fam);
    EXPECT_FALSE(verifyStrongCertificate(Spec, P[I0], P[I1], P, T).Ok);
  }
  // Tamper 4: relabel the certificate kind.
  {
    PairCertificate T = V.Cert;
    T.Kind = CertKind::Counterexample;
    EXPECT_FALSE(verifyStrongCertificate(Spec, P[I0], P[I1], P, T).Ok);
    // ...and as a counterexample it must ALSO fail: its (empty) witness
    // reaches the initial state, where this pair's diamond closes.
    T.Witness.clear();
    EXPECT_FALSE(verifyCounterexample(Spec, P[I0], P[I1], T).Ok);
  }
}

TEST(Certificates, CounterexampleReplaysAndFabricationIsRejected) {
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  const std::vector<Operation> &P = Spec.probes();
  // write(0, 0) vs write(0, 1): last writer wins, the two orders denote
  // different states everywhere.
  size_t W0 = 0, W1 = 0;
  bool Found0 = false;
  for (size_t I = 0; I < P.size(); ++I)
    if (P[I].Call.Method == "write" && P[I].Call.Args[0] == 0) {
      if (!Found0 && P[I].Call.Args[1] == 0) {
        W0 = I;
        Found0 = true;
      } else if (P[I].Call.Args[1] == 1) {
        W1 = I;
      }
    }
  ASSERT_TRUE(Found0);

  PairVerdict V = classifyPair(Spec, Movers, W0, W1);
  EXPECT_FALSE(V.Strong);
  ASSERT_EQ(V.Cert.Kind, CertKind::Counterexample);
  EXPECT_TRUE(verifyCounterexample(Spec, P[W0], P[W1], V.Cert).Ok);

  // A fabricated counterexample for a genuinely commuting pair must be
  // rejected whatever its witness claims.
  CounterSpec CSpec("c", 2, 3);
  const std::vector<Operation> &CP = CSpec.probes();
  size_t I0 = probeIdx(CP, "inc", 0), I1 = probeIdx(CP, "inc", 1);
  PairCertificate Fake;
  Fake.Kind = CertKind::Counterexample;
  EXPECT_FALSE(verifyCounterexample(CSpec, CP[I0], CP[I1], Fake).Ok);
  Fake.Witness = {CP[I0], CP[I0], CP[I1]};
  EXPECT_FALSE(verifyCounterexample(CSpec, CP[I0], CP[I1], Fake).Ok);
}

// ---------------------------------------------------------------------------
// Property: Strong never contradicts the Definition 4.1 verdicts, and
// strong pairs commute dynamically on fuzzed probe logs.
// ---------------------------------------------------------------------------

TEST(CommutProperty, StrongImpliesBothDirectionsMovable) {
  std::vector<std::unique_ptr<SequentialSpec>> Specs;
  Specs.push_back(std::make_unique<RegisterSpec>("mem", 2, 2));
  Specs.push_back(std::make_unique<CounterSpec>("c", 2, 3));
  Specs.push_back(std::make_unique<MapSpec>("map", 2, 2));
  for (const auto &Spec : Specs) {
    MoverChecker Movers(*Spec);
    MoverTable T = MoverTable::build(*Spec, Movers);
    ASSERT_TRUE(T.familyExact()) << Spec->name();
    MoverChecker Fresh(*Spec);
    for (const MoverTable::Entry &E : T.entries()) {
      const Operation &A = T.probes()[E.AIdx], &B = T.probes()[E.BIdx];
      if (!E.V.Strong) {
        // Non-strong verdicts carry a replayable refutation or an
        // informative grade — never a diamond.
        EXPECT_NE(E.V.Cert.Kind, CertKind::StrongDiamond) << Spec->name();
        continue;
      }
      // Strong commutation is state-set *equality* in both orders; the
      // precongruence (refinement) verdict can then never be a firm No.
      std::string Tag = Spec->name() + ": " + A.toString() + " x " +
                        B.toString();
      EXPECT_NE(Fresh.leftMoverSemantic(A, B), Tri::No) << Tag;
      EXPECT_NE(Fresh.leftMoverSemantic(B, A), Tri::No) << Tag;
      EXPECT_EQ(E.V.Cert.Kind, CertKind::StrongDiamond) << Tag;
    }
  }
}

TEST(CommutProperty, StrongPairsCommuteOnFuzzedLogs) {
  MapSpec Spec("map", 2, 2);
  MoverChecker Movers(Spec);
  const std::vector<Operation> &P = Spec.probes();

  std::vector<std::pair<size_t, size_t>> StrongPairs;
  for (size_t I = 0; I < P.size(); ++I)
    for (size_t J = I; J < P.size(); ++J) {
      PairCertificate Cert;
      if (certifyPair(Spec, Movers.family(), I, J, Cert))
        StrongPairs.push_back({I, J});
    }
  ASSERT_FALSE(StrongPairs.empty());

  // Fixed-seed random walks through the probe alphabet; at every reached
  // denotation, every strong pair's diamond must close.
  std::mt19937 Rng(20260808);
  std::uniform_int_distribution<size_t> PickOp(0, P.size() - 1);
  for (int Walk = 0; Walk < 64; ++Walk) {
    StateSetId S = Spec.initialId();
    for (int Step = 0; Step < 5; ++Step) {
      StateSetId Next = Spec.applyOpId(S, P[PickOp(Rng)]);
      if (Next == StateTable::EmptySetId)
        continue;
      S = Next;
      for (const auto &[I, J] : StrongPairs) {
        StateSetId SA = Spec.applyOpId(S, P[I]);
        StateSetId SB = Spec.applyOpId(S, P[J]);
        StateSetId AB = Spec.applyOpId(SA, P[J]);
        StateSetId BA = Spec.applyOpId(SB, P[I]);
        EXPECT_EQ(AB, BA) << P[I].toString() << " x " << P[J].toString();
        if (SA != StateTable::EmptySetId && SB != StateTable::EmptySetId)
          EXPECT_NE(AB, StateTable::EmptySetId)
              << P[I].toString() << " x " << P[J].toString();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Method-pair summaries: the argument predicates the table is named for.
// ---------------------------------------------------------------------------

TEST(MoverTables, SummariesRecoverArgumentPredicates) {
  {
    CounterSpec Spec("c", 2, 3);
    MoverChecker Movers(Spec);
    MoverTable T = MoverTable::build(Spec, Movers);
    bool FoundIncInc = false;
    for (const MethodPairSummary &S : T.summaries())
      if (S.MethodA == "inc" && S.MethodB == "inc") {
        FoundIncInc = true;
        // Modular increments never block and always commute.
        EXPECT_EQ(S.Pred, PairPredicate::Always) << toString(S.Pred);
      }
    EXPECT_TRUE(FoundIncInc);
  }
  {
    MapSpec Spec("map", 2, 2);
    MoverChecker Movers(Spec);
    MoverTable T = MoverTable::build(Spec, Movers);
    bool FoundPutPut = false, FoundPutGet = false;
    for (const MethodPairSummary &S : T.summaries()) {
      if (S.MethodA == "put" && S.MethodB == "put") {
        FoundPutPut = true;
        // The headline refinement: distinct keys suffice to commute,
        // same-key puts (with compatible observations) do not.
        EXPECT_EQ(S.Pred, PairPredicate::DistinctArg0) << toString(S.Pred);
        EXPECT_GT(S.StrongPairs, 0u);
        EXPECT_LT(S.StrongPairs, S.TotalPairs);
      }
      if ((S.MethodA == "get" && S.MethodB == "put") ||
          (S.MethodA == "put" && S.MethodB == "get")) {
        FoundPutGet = true;
        EXPECT_EQ(S.Pred, PairPredicate::DistinctArg0) << toString(S.Pred);
      }
    }
    EXPECT_TRUE(FoundPutPut);
    EXPECT_TRUE(FoundPutGet);
    EXPECT_GT(T.certChecks(), 0u);
  }
}

// ---------------------------------------------------------------------------
// The oracle facade: key lookup, hit/miss counters, program coverage.
// ---------------------------------------------------------------------------

TEST(CommutativityOracleDB, AnswersByOpKeyAndCountsHitsMisses) {
  CounterSpec Spec("c", 2, 3);
  CommutativityDB DB(Spec);
  const std::vector<Operation> &P = DB.probes();
  size_t I0 = probeIdx(P, "inc", 0), I1 = probeIdx(P, "inc", 1);
  OpKeyId K0 = Spec.table().opKey(P[I0]);
  OpKeyId K1 = Spec.table().opKey(P[I1]);

  EXPECT_TRUE(DB.stronglyCommute(K0, K1));
  EXPECT_TRUE(DB.stronglyCommute(K1, K0)) << "must be symmetric";
  EXPECT_EQ(DB.tableHits(), 2u);
  EXPECT_GT(DB.certChecks(), 0u);

  // An op key that is not a probe instance answers false and counts a
  // miss (sound default).
  Operation Foreign;
  Foreign.Call = {"c", "add", {0, 2}};
  OpKeyId KF = Spec.table().opKey(Foreign);
  EXPECT_FALSE(DB.stronglyCommute(K0, KF));
  EXPECT_EQ(DB.tableMisses(), 1u);

  PairCertificate Cert;
  EXPECT_TRUE(DB.strongByProbeIndex(I0, I1, &Cert));
  EXPECT_EQ(Cert.Kind, CertKind::StrongDiamond);
}

TEST(CommutativityOracleDB, CoversProgramChecksTheCallSurface) {
  MapSpec Spec("map", 2, 2);
  CommutativityDB DB(Spec);
  std::string Why;

  std::vector<std::vector<CodePtr>> Covered = {
      {parseOrDie("tx { a := map.put(0, 1) }")},
      {parseOrDie("tx { b := map.get(1); c := map.remove(0) }")}};
  EXPECT_TRUE(DB.coversProgram(Covered, &Why)) << Why;

  std::vector<std::vector<CodePtr>> VariableArg = {
      {parseOrDie("tx { a := map.get(0); b := map.put(a, 1) }")}};
  EXPECT_FALSE(DB.coversProgram(VariableArg, &Why));
  EXPECT_NE(Why.find("non-literal"), std::string::npos) << Why;

  std::vector<std::vector<CodePtr>> OutOfRange = {
      {parseOrDie("tx { a := map.put(7, 1) }")}};
  EXPECT_FALSE(DB.coversProgram(OutOfRange, &Why));
  EXPECT_NE(Why.find("no probe instance"), std::string::npos) << Why;
}

// ---------------------------------------------------------------------------
// The whole-program prover, on the shipped scenario pair and on the
// out-of-scope cases.
// ---------------------------------------------------------------------------

#ifdef PUSHPULL_SCENARIOS_DIR

TEST(Prover, ProvesDistinctAccountsRejectsSharedAccount) {
  {
    Scenario S = parseScenarioFile(std::string(PUSHPULL_SCENARIOS_DIR) +
                                   "/bank_boosted_distinct.pp");
    CommutativityDB DB(*S.Spec, S.Movers.MaxReachableSets);
    ProveResult R = proveSerializable(S, DB);
    EXPECT_EQ(R.V, ProveResult::Verdict::Proved) << R.Detail;
    EXPECT_GT(R.PairsChecked, 0u);
    EXPECT_GT(R.Instances, 0u);
    EXPECT_GT(DB.certChecks(), 0u)
        << "a proof without certificate checks proves nothing";
  }
  {
    Scenario S = parseScenarioFile(std::string(PUSHPULL_SCENARIOS_DIR) +
                                   "/bank_boosted_conflict.pp");
    CommutativityDB DB(*S.Spec, S.Movers.MaxReachableSets);
    ProveResult R = proveSerializable(S, DB);
    EXPECT_EQ(R.V, ProveResult::Verdict::Conflict) << R.Detail;
    // The minimal conflicting pair: the shared account's deposit x
    // balance read.
    EXPECT_NE(R.PairA.find("deposit(0"), std::string::npos) << R.PairA;
    EXPECT_NE(R.PairB.find("balance(0"), std::string::npos) << R.PairB;
  }
  {
    // The original bank_boosted.pp uses withdraw amounts outside the
    // probe alphabet (and transfer, which has no probes at all).
    Scenario S = parseScenarioFile(std::string(PUSHPULL_SCENARIOS_DIR) +
                                   "/bank_boosted.pp");
    CommutativityDB DB(*S.Spec, S.Movers.MaxReachableSets);
    ProveResult R = proveSerializable(S, DB);
    EXPECT_EQ(R.V, ProveResult::Verdict::Unproved) << R.Detail;
  }
}

TEST(Prover, FaultInjectionAndVariableArgsAreOutOfScope) {
  Scenario S = parseScenarioFile(std::string(PUSHPULL_SCENARIOS_DIR) +
                                 "/bank_boosted_distinct.pp");
  CommutativityDB DB(*S.Spec, S.Movers.MaxReachableSets);
  S.DisabledCriterion = "PUSH criterion (ii)";
  ProveResult R = proveSerializable(S, DB);
  EXPECT_EQ(R.V, ProveResult::Verdict::Unproved);
  EXPECT_NE(R.Detail.find("fault injection"), std::string::npos) << R.Detail;
}

#endif // PUSHPULL_SCENARIOS_DIR

// ---------------------------------------------------------------------------
// SkipOracle: with a whole-program proof in hand, skipping the explorer's
// per-terminal serializability replay changes nothing but the work done.
// ---------------------------------------------------------------------------

TEST(Prover, SkipOracleIsObservationallyEquivalent) {
  MapSpec Spec("map", 2, 2);
  MoverChecker Movers(Spec);
  CommutativityDB DB(Spec);
  std::vector<std::vector<CodePtr>> Ps = {
      {parseOrDie("tx { a := map.put(0, 1) }")},
      {parseOrDie("tx { b := map.put(1, 1) }")}};
  std::string Why;
  ASSERT_TRUE(DB.coversProgram(Ps, &Why)) << Why;

  auto Run = [&](bool Skip) {
    ExplorerConfig EC;
    EC.Reduce = Reduction::Sleep;
    EC.CommutDB = &DB;
    EC.SkipOracle = Skip;
    Explorer E(Spec, Movers, EC);
    return E.explore(Ps);
  };
  ExplorerReport Full = Run(false);
  ExplorerReport Skip = Run(true);
  ASSERT_FALSE(Full.Truncated);
  ASSERT_FALSE(Skip.Truncated);
  EXPECT_TRUE(Full.clean()) << Full.FirstFailure;
  EXPECT_TRUE(Skip.clean()) << Skip.FirstFailure;
  EXPECT_EQ(Skip.ConfigsVisited, Full.ConfigsVisited);
  EXPECT_EQ(Skip.TerminalConfigs, Full.TerminalConfigs);
  EXPECT_EQ(Full.OracleSkips, 0u);
  EXPECT_EQ(Skip.OracleSkips, Skip.TerminalConfigs);
}

// ---------------------------------------------------------------------------
// canonicalGOrder: the trace normal form the configuration-key quotient
// renders the global log in.
// ---------------------------------------------------------------------------

namespace {

/// Oracle for unit tests: strong commutation is membership of an explicit
/// unordered pair set.
class FixedOracle : public CommutativityOracle {
public:
  void allow(uint32_t A, uint32_t B) {
    Pairs.push_back({std::min(A, B), std::max(A, B)});
  }
  bool stronglyCommute(OpKeyId A, OpKeyId B) const override {
    uint32_t Lo = std::min(A, B), Hi = std::max(A, B);
    for (const auto &P : Pairs)
      if (P.first == Lo && P.second == Hi)
        return true;
    return false;
  }

private:
  std::vector<std::pair<uint32_t, uint32_t>> Pairs;
};

} // namespace

TEST(CanonicalGOrder, SortsIndependentEntriesKeepsDependentOrder) {
  FixedOracle DB;
  DB.allow(10, 20);

  // Independent (different owners, commuting keys): both input orders
  // normalize to the same canonical sequence.
  {
    GKeyView Fwd[2] = {{20, 'C', 1}, {10, 'C', 0}};
    GKeyView Rev[2] = {{10, 'C', 0}, {20, 'C', 1}};
    SmallVec<uint32_t, 16> OF, OR;
    canonicalGOrder(Fwd, 2, DB, OF);
    canonicalGOrder(Rev, 2, DB, OR);
    ASSERT_EQ(OF.size(), 2u);
    EXPECT_EQ(Fwd[OF[0]].OpKey, 10u);
    EXPECT_EQ(Fwd[OF[1]].OpKey, 20u);
    EXPECT_EQ(Rev[OR[0]].OpKey, 10u);
    EXPECT_EQ(Rev[OR[1]].OpKey, 20u);
  }
  // Same owner: dependent regardless of the oracle; program order wins.
  {
    GKeyView In[2] = {{20, 'C', 0}, {10, 'C', 0}};
    SmallVec<uint32_t, 16> O;
    canonicalGOrder(In, 2, DB, O);
    EXPECT_EQ(In[O[0]].OpKey, 20u);
    EXPECT_EQ(In[O[1]].OpKey, 10u);
  }
  // Non-commuting keys across owners: also dependent.
  {
    GKeyView In[2] = {{30, 'C', 1}, {10, 'C', 0}};
    SmallVec<uint32_t, 16> O;
    canonicalGOrder(In, 2, DB, O);
    EXPECT_EQ(In[O[0]].OpKey, 30u);
    EXPECT_EQ(In[O[1]].OpKey, 10u);
  }
  // A dependent chain pins an otherwise-minimal entry behind it.
  {
    // 30(owner 2) then 10(owner 0): dependent (no pair allowed).  20 is
    // independent of both? 20 only commutes with 10, so 30 x 20 is
    // dependent too: order must be exactly input order 30, 20, 10...
    // except 20 x 30: not allowed -> dependent.  Verify full normal form
    // emits a permutation.
    GKeyView In[3] = {{30, 'C', 2}, {20, 'C', 1}, {10, 'C', 0}};
    SmallVec<uint32_t, 16> O;
    canonicalGOrder(In, 3, DB, O);
    ASSERT_EQ(O.size(), 3u);
    bool Seen[3] = {false, false, false};
    for (uint32_t I : O) {
      ASSERT_LT(I, 3u);
      Seen[I] = true;
    }
    EXPECT_TRUE(Seen[0] && Seen[1] && Seen[2]);
    // 30 and 20 are dependent, 30 before 20 stays; 10 and 20 commute but
    // 10 x 30 does not, so 10 stays after 30.
    EXPECT_EQ(In[O[0]].OpKey, 30u);
  }
}

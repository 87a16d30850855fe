//===- perfbench/src/explore.cpp - The explore workload --------------------===//
//
// One thread runs the Explorer over a fixed set of scopes, in passes.  Why:
// this is the only workload dominated by configKey rendering, the visited
// map, copy-on-write machine copies and the partial-order reduction, with
// criteria answered from a warm mover memo (specs, mover checkers and the
// certified commutativity table persist across passes; each pass builds
// fresh Explorers).  Threads=1 keeps every work count exactly repeatable.
// Seedless on purpose: the scopes are fixed, so --seed is ignored.
//
// Skipped modules: fuzz/, stress/, analysis/ except MoverTable's
// CommutativityDB and the prover, tm/ (no engine runs).
//
// Each scope's totals are checked against the goldens bench_explorer and
// reduction_test pin; a mismatch fails that scope's unit.
//
//===----------------------------------------------------------------------===//

#include "harness.h"

#include "analysis/MoverTable.h"
#include "check/Serializability.h"
#include "sim/Explorer.h"
#include "sim/Scenario.h"

#include <memory>

using namespace pushpull;

namespace perfbench {

namespace {

struct ScopeDef {
  const char *Name;
  /// Spec and thread lines in the scenario format.
  const char *Text;
  Reduction Reduce = Reduction::None;
  bool Backward = false;
  bool Invariants = false;
  uint64_t MaxConfigs = 2000000;
  size_t MaxDepth = 64;
  /// Certified commutativity table: prove the program, then explore with
  /// the table and, when proved, without the per-terminal oracle.
  bool CommutDB = false;
  /// Goldens.
  uint64_t Configs = 0;
  uint64_t Terminals = 0;
  bool Truncated = false;
};

// E9 (bench_explorer's qualitative table), E12 (the reduction table and
// reduction_test), E14 (the certified-commutativity table), and one larger
// scope that makes the search, not set-up, dominate a pass.
const std::vector<ScopeDef> &scopes() {
  static const std::vector<ScopeDef> Defs = [] {
    std::vector<ScopeDef> D;
    ScopeDef S;
    S = {"e9.reg-rw-vs-w",
         "spec register name=mem regs=1 vals=2\n"
         "thread tx { v := mem.read(0); mem.write(0, 1) }\n"
         "thread tx { mem.write(0, 0) }\n"};
    S.Configs = 96, S.Terminals = 3;
    D.push_back(S);
    // Depth-bounded: the backward rules diverge without reduction, so the
    // golden is the truncated total.
    S = {"e9.reg-backward",
         "spec register name=mem regs=1 vals=2\n"
         "thread tx { mem.write(0, 1) }\n"
         "thread tx { v := mem.read(0) }\n"};
    S.Backward = true, S.MaxConfigs = 400000;
    S.Configs = 519, S.Terminals = 2, S.Truncated = true;
    D.push_back(S);
    S = {"e9.set-invariants", "spec set name=set keys=2\n"
                              "thread tx { a := set.add(0) }\n"
                              "thread tx { b := set.add(0); c := set.remove(1) }\n"};
    S.Invariants = true;
    S.Configs = 120, S.Terminals = 4;
    D.push_back(S);
    S = {"e9.counter-incs", "spec counter name=c counters=1 mod=3\n"
                            "thread tx { c.inc(0) }\n"
                            "thread tx { c.inc(0) }\n"
                            "thread tx { v := c.read(0) }\n"};
    S.Configs = 645, S.Terminals = 6;
    D.push_back(S);
    S = {"e9.queue", "spec queue name=q cap=2 vals=2\n"
                     "thread tx { a := q.enq(0) }\n"
                     "thread tx { b := q.enq(1) }\n"
                     "thread tx { c := q.deq() }\n"};
    S.Configs = 375, S.Terminals = 8;
    D.push_back(S);
    S = {"e9.reg-nondet", "spec register name=mem regs=2 vals=2\n"
                          "thread tx { mem.write(0, 1) + mem.write(1, 1) }\n"
                          "thread tx { v := mem.read(0) }\n"
                          "thread tx { w := mem.read(1) }\n"};
    S.MaxConfigs = 600000;
    S.Configs = 2150, S.Terminals = 32;
    D.push_back(S);
    const char *Counter3 = "spec counter name=c counters=1 mod=3\n"
                           "thread tx { c.inc(0) }\n"
                           "thread tx { c.inc(0) }\n"
                           "thread tx { c.inc(0) }\n";
    S = {"e12.counter3-none", Counter3};
    S.Configs = 4923, S.Terminals = 6;
    D.push_back(S);
    S = {"e12.counter3-persistent+symmetry", Counter3};
    S.Reduce = Reduction::PersistentSymmetry;
    S.Configs = 805, S.Terminals = 1;
    D.push_back(S);
    S = {"e12.reg-backward-sleep", "spec register name=mem regs=1 vals=2\n"
                                   "thread tx { mem.write(0, 1) }\n"
                                   "thread tx { v := mem.read(0) }\n"};
    S.Reduce = Reduction::Sleep, S.Backward = true, S.MaxDepth = 40,
    S.MaxConfigs = 400000;
    S.Configs = 50, S.Terminals = 2;
    D.push_back(S);
    const char *Map = "spec map name=map keys=2 vals=2\n"
                      "thread tx { a := map.put(0, 0) }; tx { b := map.put(0, 1) }\n"
                      "thread tx { c := map.put(1, 0) }; tx { d := map.put(1, 1) }\n";
    S = {"e14.map-distinct", Map};
    S.Reduce = Reduction::PersistentSymmetry;
    S.Configs = 3162, S.Terminals = 26;
    D.push_back(S);
    S = {"e14.map-distinct-commutdb", Map};
    S.Reduce = Reduction::PersistentSymmetry, S.CommutDB = true;
    S.Configs = 1355, S.Terminals = 6;
    D.push_back(S);
    S = {"large.counter-mixed", "spec counter name=c counters=1 mod=3\n"
                                "thread tx { c.inc(0); v := c.read(0) }\n"
                                "thread tx { c.inc(0) }\n"
                                "thread tx { w := c.read(0) }; tx { c.inc(0) }\n"};
    S.Configs = 64676, S.Terminals = 30;
    D.push_back(S);
    return D;
  }();
  return Defs;
}

/// Everything one scope needs across passes.
struct ScopeFixture {
  const ScopeDef *Def = nullptr;
  /// The parsed scope; in traced fixtures its Spec is the TracedSpec.
  Scenario Sc;
  std::shared_ptr<TracedSpec> Traced;
  std::unique_ptr<MoverChecker> Movers;
  std::unique_ptr<CommutativityDB> DB;
  std::unique_ptr<TracedCommut> TracedDB;
  /// Traced only: the oracle sampled on terminal configurations.
  std::unique_ptr<SerializabilityChecker> SampleOracle;

  const CommutativityOracle *oracle() const {
    return TracedDB ? static_cast<const CommutativityOracle *>(TracedDB.get())
                    : DB.get();
  }
};

struct Fixture {
  std::vector<ScopeFixture> Scopes;
  double ParseMs = 0;
  double DbBuildMs = 0;
};

Fixture setUp(bool Traced, Result &R) {
  Fixture F;
  for (const ScopeDef &D : scopes()) {
    ScopeFixture S;
    S.Def = &D;
    uint64_t T0 = nowNs();
    ScenarioParseResult P = parseScenario(D.Text);
    F.ParseMs += secondsSince(T0) * 1e3;
    if (!P.ok()) {
      R.check(false, std::string(D.Name) + ": parse error: " + P.Error);
      continue;
    }
    S.Sc = *P.Parsed;
    if (Traced) {
      S.Traced = std::make_shared<TracedSpec>(S.Sc.Spec);
      S.Sc.Spec = S.Traced;
      S.SampleOracle = std::make_unique<SerializabilityChecker>(*S.Sc.Spec);
    }
    S.Movers = std::make_unique<MoverChecker>(*S.Sc.Spec);
    if (D.CommutDB) {
      uint64_t T1 = nowNs();
      S.DB = std::make_unique<CommutativityDB>(*S.Sc.Spec);
      size_t N = S.DB->probes().size();
      for (size_t A = 0; A < N; ++A)
        for (size_t B = A; B < N; ++B)
          S.DB->strongByProbeIndex(A, B);
      F.DbBuildMs += secondsSince(T1) * 1e3;
      std::string Why;
      if (!S.DB->coversProgram(S.Sc.Threads, &Why))
        R.check(false, std::string(D.Name) + ": table does not cover: " + Why);
      if (Traced)
        S.TracedDB = std::make_unique<TracedCommut>(*S.DB);
    }
    F.Scopes.push_back(std::move(S));
  }
  return F;
}

/// Per-pass counters (the deterministic ones repeat exactly pass to pass
/// once the caches are warm).
struct PassCounters {
  uint64_t Configs = 0, RuleApps = 0, Rejected = 0, Pruned = 0,
           SymmetryHits = 0;
  memstats::Snapshot Mem;
  uint64_t TransHits = 0, TransMisses = 0, States = 0, Sets = 0;
  uint64_t MoverHits = 0, MoverMisses = 0, Reachable = 0, PrePairs = 0;
  uint64_t CommutHits = 0, CommutMisses = 0, CertChecks = 0;
  uint64_t ExploreNs = 0;
};

/// Traced-run samplers fed by the explorer's hooks.
struct Samplers {
  CallStat ConfigKey;
  CallStat OracleCalls;
  uint64_t RuleApplied = 0;
  uint64_t Terminals = 0;
  uint64_t Outcomes = 0;
  uint64_t OracleNotYes = 0;
};

constexpr uint64_t ConfigKeyEvery = 64;
constexpr uint64_t OracleEvery = 4;

PassCounters runPass(Fixture &F, Result &R, Samplers *Samp) {
  PassCounters C;
  memstats::Snapshot Mem0 = memstats::read();
  for (ScopeFixture &S : F.Scopes) {
    const ScopeDef &D = *S.Def;
    InternStats I0 = S.Sc.Spec->internStats();
    uint64_t MH0 = S.Movers->memoHits(), MM0 = S.Movers->memoMisses();
    uint64_t P0 = S.Movers->precongruence().pairsVisited();
    uint64_t CH0 = S.DB ? S.DB->tableHits() : 0;
    uint64_t CM0 = S.DB ? S.DB->tableMisses() : 0;
    uint64_t CC0 = S.DB ? S.DB->certChecks() : 0;

    uint64_t T0 = nowNs();
    ExplorerConfig EC;
    EC.Reduce = D.Reduce;
    EC.ExploreBackwardRules = D.Backward;
    EC.CheckInvariants = D.Invariants;
    EC.MaxConfigs = D.MaxConfigs;
    EC.MaxDepth = D.MaxDepth;
    bool Proved = true;
    if (D.CommutDB) {
      ProveResult P;
      {
        Span Sp(Site::Prove);
        P = proveSerializable(S.Sc, *S.DB);
      }
      Proved = P.V == ProveResult::Verdict::Proved;
      EC.CommutDB = S.oracle();
      EC.SkipOracle = Proved;
    }
    if (Samp) {
      EC.Machine.OnRuleApplied = [Samp](const PushPullMachine &M, RuleKind,
                                        TxId) {
        if (++Samp->RuleApplied % ConfigKeyEvery)
          return;
        Span Sp(Site::SampleConfigKey, &Samp->ConfigKey);
        std::string Key = M.configKey();
        (void)Key;
      };
      SerializabilityChecker *Oracle = S.SampleOracle.get();
      EC.OnTerminal = [Samp, Oracle](const PushPullMachine &M) {
        if (++Samp->Terminals % OracleEvery)
          return;
        Span Sp(Site::SampleOracle, &Samp->OracleCalls);
        SerializabilityVerdict V = Oracle->checkCommitOrder(M);
        Samp->Outcomes += V.OutcomesTried;
        Samp->OracleNotYes += V.Serializable != Tri::Yes;
      };
    }
    ExplorerReport Rep;
    uint64_t E0 = nowNs();
    {
      Span Sp(Site::Explore);
      Explorer E(*S.Sc.Spec, *S.Movers, EC);
      Rep = E.explore(S.Sc.Threads);
    }
    C.ExploreNs += nowNs() - E0;
    R.UnitMs.push_back(secondsSince(T0) * 1e3);

    bool Ok = Proved && Rep.ConfigsVisited == D.Configs &&
              Rep.TerminalConfigs == D.Terminals &&
              Rep.Truncated == D.Truncated && Rep.clean() &&
              (!D.CommutDB || Rep.OracleSkips == D.Terminals);
    R.check(Ok, std::string(D.Name) + ": configs " +
                    std::to_string(Rep.ConfigsVisited) + "/" +
                    std::to_string(D.Configs) + ", terminals " +
                    std::to_string(Rep.TerminalConfigs) + "/" +
                    std::to_string(D.Terminals) + ", truncated " +
                    std::to_string(Rep.Truncated) + ", proved " +
                    std::to_string(Proved) + ", first failure: " +
                    Rep.FirstFailure);

    C.Configs += Rep.ConfigsVisited;
    C.RuleApps += Rep.RuleApplications;
    C.Rejected += Rep.RejectedAttempts;
    C.Pruned += Rep.FiringsPruned;
    C.SymmetryHits += Rep.SymmetryHits;
    InternStats I1 = S.Sc.Spec->internStats();
    C.TransHits += I1.TransitionMemoHits - I0.TransitionMemoHits;
    C.TransMisses += I1.TransitionMemoMisses - I0.TransitionMemoMisses;
    C.States += I1.StatesInterned;
    C.Sets += I1.StateSetsInterned;
    C.MoverHits += S.Movers->memoHits() - MH0;
    C.MoverMisses += S.Movers->memoMisses() - MM0;
    C.PrePairs += S.Movers->precongruence().pairsVisited() - P0;
    C.Reachable += S.Movers->reachableComputedCount();
    if (S.DB) {
      C.CommutHits += S.DB->tableHits() - CH0;
      C.CommutMisses += S.DB->tableMisses() - CM0;
      C.CertChecks += S.DB->certChecks() - CC0;
    }
  }
  C.Mem = memstats::read().delta(Mem0);
  return C;
}

} // namespace

Result runExplore(const Options &Opt) {
  Result R;
  if (!Opt.Trace) {
    Fixture F;
    timeSetUp(R, [&] { F = setUp(false, R); });
    uint64_t Start = nowNs();
    while (R.PassS.empty() || secondsSince(Start) < Opt.Seconds) {
      nextCpu();
      uint64_t T0 = nowNs();
      PassCounters C = runPass(F, R, nullptr);
      R.addPass(secondsSince(T0), static_cast<double>(C.Configs));
      timeSetUp(R, [&] { setUp(false, R); });
    }
    return R;
  }

  // Traced run: untraced baseline, then the same passes with spans on.
  Fixture Plain = setUp(false, R);
  std::vector<double> Untraced, TracedPasses;
  uint64_t Configs = 0, ExploreNs = 0;
  uint64_t Start = nowNs();
  while (Untraced.empty() || secondsSince(Start) < Opt.Seconds / 2) {
    uint64_t T0 = nowNs();
    PassCounters C = runPass(Plain, R, nullptr);
    Untraced.push_back(secondsSince(T0));
    Configs += C.Configs;
    ExploreNs += C.ExploreNs;
  }

  Fixture F = setUp(true, R);
  Samplers Samp;
  PassCounters Last;
  resetCollected();
  setTracing(true);
  Start = nowNs();
  {
    Span Root(Site::Root);
    while (TracedPasses.empty() || secondsSince(Start) < Opt.Seconds / 2) {
      uint64_t T0 = nowNs();
      Last = runPass(F, R, &Samp);
      TracedPasses.push_back(secondsSince(T0));
    }
  }
  flushThread();
  setTracing(false);
  SiteTotals T = collected();
  R.check(Samp.OracleNotYes == 0, "sampled oracle verdict on a terminal "
                                  "configuration was not Yes");

  auto &L = R.Layer;
  L["parse.ms"] = F.ParseMs;
  L["explorer.configs"] = static_cast<double>(Last.Configs);
  L["explorer.rule_apps"] = static_cast<double>(Last.RuleApps);
  L["explorer.rejected"] = static_cast<double>(Last.Rejected);
  L["explorer.accept_ratio"] =
      ratio(static_cast<double>(Last.RuleApps),
            static_cast<double>(Last.RuleApps + Last.Rejected));
  L["explorer.pruned"] = static_cast<double>(Last.Pruned);
  L["explorer.symmetry_hits"] = static_cast<double>(Last.SymmetryHits);
  L["explorer.configs_per_s"] =
      ratio(static_cast<double>(Configs), static_cast<double>(ExploreNs) * 1e-9);
  L["machine.configkey_ns"] = Samp.ConfigKey.meanNs();
  double Cfg = static_cast<double>(Last.Configs);
  L["machine.copies_per_config"] =
      ratio(static_cast<double>(Last.Mem.MachineCopies), Cfg);
  L["cow.snapshot_bytes_per_config"] =
      ratio(static_cast<double>(Last.Mem.SnapshotBytes), Cfg);
  L["cow.deep_copies_per_config"] =
      ratio(static_cast<double>(Last.Mem.DeepCopies), Cfg);
  L["arena.bytes"] = static_cast<double>(Last.Mem.ArenaBytes);
  L["spec.transition_hit_rate"] =
      ratio(static_cast<double>(Last.TransHits),
            static_cast<double>(Last.TransHits + Last.TransMisses));
  L["spec.states"] = static_cast<double>(Last.States);
  L["spec.sets"] = static_cast<double>(Last.Sets);
  uint64_t Succ = 0, SuccNs = 0, Hints = 0;
  for (const ScopeFixture &S : F.Scopes) {
    Succ += S.Traced->Successors.Calls.load();
    SuccNs += S.Traced->Successors.Ns.load();
    Hints += S.Traced->Hints.Calls.load();
  }
  double NPasses = static_cast<double>(TracedPasses.size());
  L["spec.successor_calls"] = static_cast<double>(Succ) / NPasses;
  L["spec.successor_ns"] =
      ratio(static_cast<double>(SuccNs), static_cast<double>(Succ));
  L["mover.memo_hit_rate"] =
      ratio(static_cast<double>(Last.MoverHits),
            static_cast<double>(Last.MoverHits + Last.MoverMisses));
  L["mover.semantic_calls"] =
      static_cast<double>(Last.MoverHits + Last.MoverMisses);
  L["mover.hint_calls"] = static_cast<double>(Hints) / NPasses;
  L["mover.reachable_sets"] = static_cast<double>(Last.Reachable);
  L["precongruence.pairs"] = static_cast<double>(Last.PrePairs);
  L["commut.hits"] = static_cast<double>(Last.CommutHits);
  L["commut.misses"] = static_cast<double>(Last.CommutMisses);
  uint64_t Q = 0, QNs = 0;
  for (const ScopeFixture &S : F.Scopes)
    if (S.TracedDB) {
      Q += S.TracedDB->Queries.Calls.load();
      QNs += S.TracedDB->Queries.Ns.load();
    }
  L["commut.query_ns"] = ratio(static_cast<double>(QNs), static_cast<double>(Q));
  L["commut.cert_checks"] = static_cast<double>(Last.CertChecks);
  L["commut.db_build_ms"] = F.DbBuildMs;
  L["oracle.calls"] = static_cast<double>(Samp.OracleCalls.Calls.load());
  L["oracle.us_per_call"] = Samp.OracleCalls.meanNs() * 1e-3;
  L["oracle.outcomes_per_call"] =
      ratio(static_cast<double>(Samp.Outcomes),
            static_cast<double>(Samp.OracleCalls.Calls.load()));
  addTraceMetrics(R, T, Untraced, TracedPasses);
  return R;
}

} // namespace perfbench

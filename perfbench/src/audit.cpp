//===- perfbench/src/audit.cpp - The audit workload ------------------------===//
//
// The ppcheck battery, driven through its library calls, in passes:
// auditCriteria for each engine-surface group x spec, runNegativeBattery,
// auditIndependence per spec, MoverTable::build per spec, and
// proveSerializable over every scenario under scenarios/.
//
// Why: this is the only workload that runs analysis/, and it evaluates the
// Figure 5 criteria on installed shapes, not on reachable runs — a change to
// the commutation kernel should show here and in fuzz, not in stress.
// Skipped modules: sim/Explorer, sim/Reduction, sim/Scheduler, fuzz/,
// stress/, check/.  Seedless on purpose: the shape scopes and scenarios are
// fixed, so --seed is ignored.
//
// The criteria and independence audits visit the smallest shapes first, up
// to a cap per audit (ppcheck --max-shapes), so one pass stays near a
// second and a run holds several passes.
//
//===----------------------------------------------------------------------===//

#include "harness.h"

#include "analysis/IndependenceAudit.h"
#include "analysis/MoverTable.h"
#include "analysis/Obligations.h"
#include "sim/Scenario.h"
#include "spec/CounterSpec.h"
#include "spec/RegisterSpec.h"
#include "tm/Engine.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

using namespace pushpull;

namespace perfbench {

namespace {

constexpr uint64_t CriteriaMaxShapes = 6000;
constexpr uint64_t IndependenceMaxShapes = 12000;

struct AuditSpec {
  std::string Kind;
  std::string SpecLine;
  std::shared_ptr<const SequentialSpec> Spec;
  std::shared_ptr<TracedSpec> Traced;
};

struct EngineGroup {
  std::string Label;
  uint32_t RuleMask = 0;
  bool PullsUncommitted = false;
};

struct ProveCase {
  std::string File;
  Scenario Sc;
  std::shared_ptr<TracedSpec> Traced;
};

struct Fixture {
  std::vector<AuditSpec> Specs;
  std::vector<EngineGroup> Groups;
  std::vector<ProveCase> Scenarios;
  double ParseMs = 0;
};

/// Set-up: parse every scenario, build the spec ladder and group the
/// engines by effective rule surface (as ppcheck --all-engines does).
Fixture setUp(const Options &Opt, bool Traced, Result &R) {
  Fixture F;
  F.Specs.push_back({"register", "spec register name=mem regs=1 vals=2",
                     std::make_shared<RegisterSpec>("mem", 1, 2), nullptr});
  F.Specs.push_back({"counter", "spec counter name=c counters=1 mod=2",
                     std::make_shared<CounterSpec>("c", 1, 2), nullptr});
  if (Traced)
    for (AuditSpec &S : F.Specs) {
      S.Traced = std::make_shared<TracedSpec>(S.Spec);
      S.Spec = S.Traced;
    }

  std::map<std::pair<uint32_t, bool>, std::vector<std::string>> Groups;
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  for (const std::string &Name : allEngineNames()) {
    PushPullMachine M(Spec, Movers);
    M.addThread({call("mem", "read", {Value(0)})});
    std::string Error;
    std::unique_ptr<TMEngine> E = makeEngine(Name, {}, M, Error);
    if (!E) {
      R.check(false, "engine " + Name + ": " + Error);
      continue;
    }
    Groups[{E->ruleMask(), E->pullsUncommitted()}].push_back(Name);
  }
  for (const auto &[Surface, Names] : Groups) {
    EngineGroup G{Names.front(), Surface.first, Surface.second};
    for (size_t I = 1; I < Names.size(); ++I)
      G.Label += "," + Names[I];
    F.Groups.push_back(G);
  }

  namespace fs = std::filesystem;
  std::vector<std::string> Files;
  std::error_code EC;
  for (const auto &Entry :
       fs::recursive_directory_iterator(fs::path(Opt.Root) / "scenarios", EC))
    if (Entry.is_regular_file() && Entry.path().extension() == ".pp")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  R.check(!Files.empty() && !EC, "no scenarios under " + Opt.Root);
  for (const std::string &File : Files) {
    std::ifstream In(File);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    uint64_t T0 = nowNs();
    ScenarioParseResult P = parseScenario(Buf.str());
    F.ParseMs += secondsSince(T0) * 1e3;
    if (!P.ok()) {
      R.check(false, File + ": " + P.Error);
      continue;
    }
    ProveCase C{fs::path(File).filename().string(), *P.Parsed, nullptr};
    if (Traced) {
      C.Traced = std::make_shared<TracedSpec>(C.Sc.Spec);
      C.Sc.Spec = C.Traced;
    }
    F.Scenarios.push_back(std::move(C));
  }
  return F;
}

struct PassCounters {
  uint64_t Shapes = 0, Probes = 0, Convicted = 0, IndepPairs = 0,
           ProvePairs = 0, CertChecks = 0, Items = 0;
  /// The MoverTable builds' MoverCheckers.
  uint64_t MoverHits = 0, MoverMisses = 0, Reachable = 0, PrePairs = 0;
  double DbBuildMs = 0;
};

PassCounters runPass(Fixture &F, Result &R) {
  PassCounters C;
  auto unit = [&R, &C](uint64_t T0) {
    R.UnitMs.push_back(secondsSince(T0) * 1e3);
    ++C.Items;
  };

  for (const EngineGroup &G : F.Groups)
    for (const AuditSpec &S : F.Specs) {
      uint64_t T0 = nowNs();
      CriterionAuditConfig Cfg;
      Cfg.Spec = S.Spec.get();
      Cfg.SpecLine = S.SpecLine;
      Cfg.EngineName = G.Label;
      Cfg.RuleMask = G.RuleMask;
      Cfg.PullsUncommitted = G.PullsUncommitted;
      Cfg.MaxShapes = CriteriaMaxShapes;
      CriterionAuditReport Rep;
      {
        Span Sp(Site::Criteria);
        Rep = auditCriteria(Cfg);
      }
      unit(T0);
      C.Shapes += Rep.ShapesAudited;
      C.Probes += Rep.ProbesRun;
      R.check(Rep.clean() && Rep.ShapesAudited > 0,
              "criteria " + G.Label + " " + S.Kind + ": " +
                  std::to_string(Rep.Unsound.size()) + " unsound, " +
                  std::to_string(Rep.Incomplete.size()) + " incomplete");
    }

  {
    uint64_t T0 = nowNs();
    std::vector<ConvictionResult> Battery;
    {
      Span Sp(Site::Battery);
      Battery = runNegativeBattery(ShapeScope());
    }
    unit(T0);
    R.check(Battery.size() == injectableCriteria().size(),
            "battery ran " + std::to_string(Battery.size()) + " injections");
    for (const ConvictionResult &B : Battery) {
      C.Convicted += B.Convicted;
      R.check(B.Convicted, "battery: '" + B.Criterion + "' not convicted");
    }
  }

  for (const AuditSpec &S : F.Specs) {
    uint64_t T0 = nowNs();
    IndependenceAuditConfig Cfg;
    Cfg.Spec = S.Spec.get();
    Cfg.MaxShapes = IndependenceMaxShapes;
    IndependenceAuditReport Rep;
    {
      Span Sp(Site::Independence);
      Rep = auditIndependence(Cfg);
    }
    unit(T0);
    C.IndepPairs += Rep.PairsChecked;
    R.check(Rep.clean() && Rep.PairsChecked > 0,
            "independence " + S.Kind + ": " +
                std::to_string(Rep.Violations.size()) + " violations");
  }

  for (const AuditSpec &S : F.Specs) {
    uint64_t T0 = nowNs();
    MoverChecker Movers(*S.Spec);
    Span Sp(Site::MoverTable);
    MoverTable T = MoverTable::build(*S.Spec, Movers);
    C.CertChecks += T.certChecks();
    C.MoverHits += Movers.memoHits();
    C.MoverMisses += Movers.memoMisses();
    C.Reachable += Movers.reachableComputedCount();
    C.PrePairs += Movers.precongruence().pairsVisited();
    unit(T0);
    R.check(T.familyExact(), "mover table " + S.Kind + " not exact");
  }

  for (const ProveCase &P : F.Scenarios) {
    uint64_t T0 = nowNs();
    Span Sp(Site::Prove);
    CommutativityDB DB(*P.Sc.Spec, P.Sc.Movers.MaxReachableSets);
    C.DbBuildMs += secondsSince(T0) * 1e3;
    ProveResult Res = proveSerializable(P.Sc, DB);
    C.ProvePairs += Res.PairsChecked;
    C.CertChecks += DB.certChecks();
    unit(T0);
    if (P.File == "bank_boosted_distinct.pp")
      R.check(Res.V == ProveResult::Verdict::Proved,
              P.File + ": " + toString(Res.V) + ", expected PROVED");
    else if (P.File == "bank_boosted_conflict.pp")
      R.check(Res.V == ProveResult::Verdict::Conflict,
              P.File + ": " + toString(Res.V) + ", expected CONFLICT");
  }
  return C;
}

} // namespace

Result runAudit(const Options &Opt) {
  Result R;
  if (!Opt.Trace) {
    Fixture F;
    timeSetUp(R, [&] { F = setUp(Opt, false, R); });
    uint64_t Start = nowNs();
    while (R.PassS.empty() || secondsSince(Start) < Opt.Seconds) {
      nextCpu();
      uint64_t T0 = nowNs();
      PassCounters C = runPass(F, R);
      R.addPass(secondsSince(T0), static_cast<double>(C.Items));
      timeSetUp(R, [&] { setUp(Opt, false, R); });
    }
    return R;
  }

  Fixture Plain = setUp(Opt, false, R);
  std::vector<double> Untraced, TracedPasses;
  uint64_t Start = nowNs();
  while (Untraced.empty() || secondsSince(Start) < Opt.Seconds / 2) {
    uint64_t T0 = nowNs();
    runPass(Plain, R);
    Untraced.push_back(secondsSince(T0));
  }

  Fixture F = setUp(Opt, true, R);
  PassCounters Last;
  resetCollected();
  setTracing(true);
  Start = nowNs();
  {
    Span Root(Site::Root);
    while (TracedPasses.empty() || secondsSince(Start) < Opt.Seconds / 2) {
      uint64_t T0 = nowNs();
      Last = runPass(F, R);
      TracedPasses.push_back(secondsSince(T0));
    }
  }
  flushThread();
  setTracing(false);
  SiteTotals T = collected();

  auto &L = R.Layer;
  double Passes = static_cast<double>(TracedPasses.size());
  L["parse.ms"] = F.ParseMs;
  L["obligations.shapes"] = static_cast<double>(Last.Shapes);
  L["obligations.probes"] = static_cast<double>(Last.Probes);
  L["obligations.us_per_probe"] =
      ratio(static_cast<double>(T.inclNs(Site::Criteria)) * 1e-3,
            static_cast<double>(Last.Probes) * Passes);
  L["battery.convicted"] = static_cast<double>(Last.Convicted);
  L["independence.pairs"] = static_cast<double>(Last.IndepPairs);
  L["independence.ns_per_pair"] =
      ratio(static_cast<double>(T.inclNs(Site::Independence)),
            static_cast<double>(Last.IndepPairs) * Passes);
  L["prove.pairs"] = static_cast<double>(Last.ProvePairs);
  L["commut.cert_checks"] = static_cast<double>(Last.CertChecks);
  L["commut.db_build_ms"] = Last.DbBuildMs;
  uint64_t TransHits = 0, TransMisses = 0, States = 0, Sets = 0, Succ = 0,
           SuccNs = 0, Hints = 0;
  auto addSpec = [&](const TracedSpec &S) {
    InternStats I = S.internStats();
    TransHits += I.TransitionMemoHits;
    TransMisses += I.TransitionMemoMisses;
    States += I.StatesInterned;
    Sets += I.StateSetsInterned;
    Succ += S.Successors.Calls.load();
    SuccNs += S.Successors.Ns.load();
    Hints += S.Hints.Calls.load();
  };
  for (const AuditSpec &S : F.Specs)
    addSpec(*S.Traced);
  for (const ProveCase &P : F.Scenarios)
    addSpec(*P.Traced);
  L["spec.transition_hit_rate"] =
      ratio(static_cast<double>(TransHits),
            static_cast<double>(TransHits + TransMisses));
  L["spec.states"] = static_cast<double>(States);
  L["spec.sets"] = static_cast<double>(Sets);
  L["spec.successor_calls"] = static_cast<double>(Succ) / Passes;
  L["spec.successor_ns"] =
      ratio(static_cast<double>(SuccNs), static_cast<double>(Succ));
  L["mover.hint_calls"] = static_cast<double>(Hints) / Passes;
  double MH = static_cast<double>(Last.MoverHits),
         MM = static_cast<double>(Last.MoverMisses);
  L["mover.memo_hit_rate"] = ratio(MH, MH + MM);
  L["mover.semantic_calls"] = MH + MM;
  L["mover.reachable_sets"] = static_cast<double>(Last.Reachable);
  L["precongruence.pairs"] = static_cast<double>(Last.PrePairs);
  addTraceMetrics(R, T, Untraced, TracedPasses);
  return R;
}

} // namespace perfbench

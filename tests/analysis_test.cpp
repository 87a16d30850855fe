//===- tests/analysis_test.cpp - Static analysis battery ----------------------===//
//
// The ppcheck subsystem is itself held to proof: the criterion audit must
// pass every shipped engine surface and convict every injectable
// criterion with a witness that round-trips through the scenario parser;
// the independence audit must agree with the dynamic fuzzed-commutation
// evidence of reduction_test.cpp; and the linter must be clean over the
// shipped scenarios while firing exactly once per golden broken program.
//
//===----------------------------------------------------------------------===//

#include "analysis/IndependenceAudit.h"
#include "analysis/Lint.h"
#include "analysis/Obligations.h"

#include "fuzz/Generator.h"
#include "sim/Scenario.h"
#include "spec/CounterSpec.h"
#include "spec/RegisterSpec.h"
#include "tm/Engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

using namespace pushpull;

namespace {

std::shared_ptr<RegisterSpec> regSpec() {
  return std::make_shared<RegisterSpec>("mem", 1, 2);
}
std::shared_ptr<CounterSpec> cntSpec() {
  return std::make_shared<CounterSpec>("c", 1, 2);
}

/// Instantiate a scenario engine over a throwaway machine and read off
/// its effective rule surface.
std::pair<uint32_t, bool> surfaceOf(const std::string &Name) {
  auto Spec = regSpec();
  MoverChecker Movers(*Spec);
  PushPullMachine M(*Spec, Movers);
  M.addThread({call("mem", "read", {Value(0)})});
  std::string Error;
  std::unique_ptr<TMEngine> E = makeEngine(Name, {}, M, Error);
  EXPECT_TRUE(E) << Name << ": " << Error;
  if (!E)
    return {0, false};
  return {E->ruleMask(), E->pullsUncommitted()};
}

} // namespace

// ---------------------------------------------------------------------------
// Engine rule surfaces: the static claims each engine header makes.
// ---------------------------------------------------------------------------

TEST(EngineSurfaces, MatchTheAlgorithms) {
  const uint32_t All = allRulesMask();
  const uint32_t NoUnPush = All & ~ruleBit(RuleKind::UnPush);
  const uint32_t Forward = All & ~(ruleBit(RuleKind::UnApp) |
                                   ruleBit(RuleKind::UnPull));
  struct Expect {
    const char *Name;
    uint32_t Mask;
    bool Uncommitted;
  };
  const Expect Table[] = {
      {"optimistic", NoUnPush, false},  {"checkpoint", NoUnPush, false},
      {"irrevocable", NoUnPush, false}, {"pessimistic", Forward, false},
      {"boosting", All, false},         {"early-release", All, false},
      {"htm", All, false},              {"htm-word", All, false},
      {"hybrid", All, false},           {"dependent", All, true},
  };
  // The table must cover exactly the scenario engine names.
  std::vector<std::string> Names = allEngineNames();
  ASSERT_EQ(Names.size(), std::size(Table));
  for (const Expect &E : Table) {
    ASSERT_NE(std::find(Names.begin(), Names.end(), E.Name), Names.end())
        << E.Name;
    auto [Mask, Uncommitted] = surfaceOf(E.Name);
    EXPECT_EQ(Mask, E.Mask) << E.Name;
    EXPECT_EQ(Uncommitted, E.Uncommitted) << E.Name;
  }
}

// ---------------------------------------------------------------------------
// Positive criterion audit: every distinct engine surface, two specs.
// ---------------------------------------------------------------------------

TEST(Shapes, EmissionSequenceIsPinned) {
  // The enumeration order is the audits' minimality order, so pruning in
  // the generator must not change which shapes come out or when.  Counts
  // per entry size and an FNV-1a hash of the describe() sequence were
  // recorded from a build that walked every capped subtree in full.
  RegisterSpec Spec("mem", 1, 2);
  ShapeScope Scope;
  Scope.IncludeIdle = true;
  Scope.OtherCodeCalls = true;
  Scope.MaxAlphabet = 2;
  std::vector<Operation> Alphabet = shapeAlphabet(Spec, Scope.MaxAlphabet);
  ASSERT_EQ(Alphabet.size(), 2u);
  std::vector<uint64_t> PerSize;
  uint64_t Hash = 1469598103934665603ull;
  uint64_t Total =
      enumerateShapes(Scope, Alphabet.size(), [&](const AbstractShape &S) {
        if (PerSize.size() <= S.entryCount())
          PerSize.resize(S.entryCount() + 1);
        ++PerSize[S.entryCount()];
        for (char C : S.describe(Alphabet) + "\n") {
          Hash ^= static_cast<unsigned char>(C);
          Hash *= 1099511628211ull;
        }
        return true;
      });
  EXPECT_EQ(Total, 10474u);
  EXPECT_EQ(PerSize, (std::vector<uint64_t>{16, 80, 340, 1206, 3360, 5472}));
  EXPECT_EQ(Hash, 0x07a18a789df38f16ull);
}

TEST(CriterionAudit, EveryEngineSurfaceIsCleanOnRegister) {
  auto Reg = regSpec();
  // The audit depends on the engine only through (mask, uncommitted);
  // auditing the distinct surfaces covers all ten engines (the grouping
  // itself is pinned by EngineSurfaces.MatchTheAlgorithms).
  struct Surface {
    const char *Label;
    uint32_t Mask;
    bool Uncommitted;
  };
  const uint32_t All = allRulesMask();
  const Surface Surfaces[] = {
      {"optimistic", All & ~ruleBit(RuleKind::UnPush), false},
      {"pessimistic",
       All & ~(ruleBit(RuleKind::UnApp) | ruleBit(RuleKind::UnPull)), false},
      {"boosting", All, false},
      {"dependent", All, true},
  };
  for (const Surface &S : Surfaces) {
    CriterionAuditConfig C;
    C.Spec = Reg.get();
    C.SpecLine = "spec register name=mem regs=1 vals=2";
    C.EngineName = S.Label;
    C.RuleMask = S.Mask;
    C.PullsUncommitted = S.Uncommitted;
    CriterionAuditReport R = auditCriteria(C);
    EXPECT_GT(R.ShapesAudited, 1000u) << S.Label;
    EXPECT_GT(R.ProbesRun, 10000u) << S.Label;
    EXPECT_TRUE(R.clean())
        << S.Label << ": unsound=" << R.Unsound.size()
        << " incomplete=" << R.Incomplete.size()
        << (R.Unsound.empty() ? ""
                              : "\n" + R.Unsound[0].describe(R.Alphabet));
  }
}

TEST(CriterionAudit, FullSurfaceIsCleanOnCounter) {
  auto Cnt = cntSpec();
  CriterionAuditConfig C;
  C.Spec = Cnt.get();
  C.SpecLine = "spec counter name=c counters=1 mod=2";
  CriterionAuditReport R = auditCriteria(C);
  EXPECT_GT(R.ShapesAudited, 1000u);
  EXPECT_TRUE(R.clean()) << "unsound=" << R.Unsound.size()
                         << " incomplete=" << R.Incomplete.size();
}

TEST(CriterionAudit, GrayCriteriaOffIsAlsoClean) {
  // UNPUSH (i) and PULL (iii) are "not strictly necessary" (paper §5);
  // the machine must stay criteria-sound with them off, too.
  auto Reg = regSpec();
  CriterionAuditConfig C;
  C.Spec = Reg.get();
  C.SpecLine = "spec register name=mem regs=1 vals=2";
  C.EnforceGray = false;
  CriterionAuditReport R = auditCriteria(C);
  EXPECT_TRUE(R.clean()) << "unsound=" << R.Unsound.size()
                         << " incomplete=" << R.Incomplete.size();
}

// ---------------------------------------------------------------------------
// Negative battery: every injectable criterion convicted, witnesses
// round-trip through the scenario parser and carry the injection.
// ---------------------------------------------------------------------------

TEST(NegativeBattery, EveryInjectionIsConvictedWithParseableWitness) {
  ShapeScope Scope;
  std::vector<ConvictionResult> Results = runNegativeBattery(Scope);
  ASSERT_EQ(Results.size(), injectableCriteria().size());
  for (const ConvictionResult &R : Results) {
    EXPECT_TRUE(R.Convicted) << R.Criterion;
    if (!R.Convicted)
      continue;
    // The masking theorem (DESIGN.md §13): UNPUSH (ii) is only
    // observable with gray criteria off; everything else convicts with
    // the full criteria set enforced.
    EXPECT_EQ(R.EnforcedGray, R.Criterion != "UNPUSH criterion (ii)")
        << R.Criterion;
    // The divergence is an unsoundness (machine fired, criteria forbid).
    EXPECT_TRUE(R.Witness.MachineApplied) << R.Criterion;
    EXPECT_FALSE(R.Witness.Witness.empty()) << R.Criterion;

    // Round-trip: the witness is a parseable scenario that reproduces
    // the injection, the spec, and one transaction per shape thread.
    ScenarioParseResult P = parseScenario(R.Witness.Witness);
    ASSERT_TRUE(P.ok()) << R.Criterion << " line " << P.ErrorLine << ": "
                        << P.Error << "\n"
                        << R.Witness.Witness;
    EXPECT_EQ(P.Parsed->DisabledCriterion, R.Criterion);
    EXPECT_TRUE(P.Parsed->Spec) << R.Criterion;
    EXPECT_EQ(P.Parsed->Threads.size(), Scope.Threads) << R.Criterion;

    // And the linter accepts it apart from intentional skip-only filler
    // transactions (witness shapes routinely leave a thread idle).
    LintReport L = lintScenarioText("witness.pp", R.Witness.Witness);
    EXPECT_EQ(L.errors(), 0u) << R.Criterion << "\n"
                              << L.render() << R.Witness.Witness;
    for (const LintDiag &D : L.Diags)
      EXPECT_EQ(D.Check, "empty-transaction") << R.Criterion;
  }
}

TEST(NegativeBattery, ConvictionsAreMinimalWithinScope) {
  // Smallest-first enumeration: no well-formed shape with fewer entries
  // than the reported witness convicts the same injection.  Spot-check
  // the cheapest conviction (PUSH (i)) by re-auditing with the shape
  // budget cut to the sizes below the witness.
  ShapeScope Scope;
  std::vector<ConvictionResult> Results = runNegativeBattery(Scope);
  const ConvictionResult *PushI = nullptr;
  for (const ConvictionResult &R : Results)
    if (R.Criterion == "PUSH criterion (i)")
      PushI = &R;
  ASSERT_NE(PushI, nullptr);
  ASSERT_TRUE(PushI->Convicted);
  size_t WitnessSize = PushI->Witness.Shape.entryCount();
  EXPECT_GE(WitnessSize, 2u); // one unpushed op can always push
  auto Reg = regSpec();
  CriterionAuditConfig C;
  C.Spec = Reg.get();
  C.SpecLine = "spec register name=mem regs=1 vals=2";
  C.DisabledCriterion = "PUSH criterion (i)";
  C.Scope = Scope;
  // Restrict to strictly smaller shapes via the per-thread caps.
  C.Scope.MaxGlobal = 0;
  C.Scope.MaxLocalSubject = static_cast<unsigned>(WitnessSize) - 1;
  C.Scope.MaxLocalOther = 0;
  CriterionAuditReport R = auditCriteria(C);
  EXPECT_TRUE(R.Unsound.empty())
      << "a smaller conviction exists; enumeration is not smallest-first";
}

// ---------------------------------------------------------------------------
// Independence audit.
// ---------------------------------------------------------------------------

TEST(IndependenceAudit, ShapeDomainIsClean) {
  auto Reg = regSpec();
  IndependenceAuditConfig C;
  C.Spec = Reg.get();
  // Trim the scope a little: the full default runs ~90k shapes, which
  // is ppcheck's job; the test pins the result on a meaningful core.
  C.Scope.MaxGlobal = 2;
  C.Scope.MaxLocalSubject = 2;
  C.Scope.MaxLocalOther = 1;
  IndependenceAuditReport R = auditIndependence(C);
  EXPECT_GT(R.ShapesAudited, 1000u);
  EXPECT_GT(R.PairsChecked, 10000u);
  EXPECT_TRUE(R.clean()) << (R.Violations.empty()
                                 ? std::string()
                                 : R.Violations[0].Reason + " at " +
                                       R.Violations[0].Shape.describe(
                                           R.Alphabet));
}

TEST(IndependenceAudit, AgreesWithFuzzedReachableConfigurations) {
  // The same checker reduction_test exercises dynamically: random-walk
  // real machines from fuzzed programs and run the shared
  // checkIndependenceAt at every stop.  The static audit and the
  // dynamic battery must tell the same story (zero violations).
  GeneratorConfig GC;
  GC.Seed = 20260808;
  GC.MaxThreads = 3;
  GC.MaxTxPerThread = 1;
  GC.MaxOpsPerTx = 2;
  GC.SpecKinds = {"register", "counter", "set"};
  Generator Gen(GC);

  std::mt19937_64 Rng(11);
  size_t TotalPairs = 0;
  std::vector<std::string> Failures;
  for (int CaseIdx = 0; CaseIdx < 12; ++CaseIdx) {
    FuzzCase C = Gen.next();
    std::string Error;
    std::shared_ptr<const SequentialSpec> Spec = C.buildSpec(Error);
    ASSERT_TRUE(Spec) << Error;
    MoverChecker Movers(*Spec);
    PushPullMachine M(*Spec, Movers);
    for (const auto &P : C.Threads)
      M.addThread(P);
    for (int Step = 0; Step < 8; ++Step) {
      TotalPairs += checkIndependenceAt(M, Failures, /*MaxPairs=*/60);
      std::vector<Candidate> Cands = allCandidates(M);
      std::shuffle(Cands.begin(), Cands.end(), Rng);
      bool Advanced = false;
      for (const Candidate &Next : Cands) {
        PushPullMachine N = M;
        if (applyFiring(N, Next.F)) {
          M = std::move(N);
          Advanced = true;
          break;
        }
      }
      if (!Advanced)
        break;
    }
  }
  EXPECT_GT(TotalPairs, 200u);
  EXPECT_TRUE(Failures.empty()) << Failures.front();
}

// ---------------------------------------------------------------------------
// Linter: shipped scenarios are clean; goldens fire one check each.
// ---------------------------------------------------------------------------

TEST(Lint, ShippedScenariosAreClean) {
  namespace fs = std::filesystem;
  size_t Files = 0;
  for (const auto &Entry :
       fs::recursive_directory_iterator(PUSHPULL_SCENARIOS_DIR)) {
    if (!Entry.is_regular_file() || Entry.path().extension() != ".pp")
      continue;
    ++Files;
    LintReport R = lintScenarioFile(Entry.path().string());
    EXPECT_TRUE(R.clean()) << Entry.path() << "\n" << R.render();
  }
  EXPECT_GE(Files, 15u);
}

namespace {

struct LintGolden {
  const char *Check;
  LintSeverity Severity;
  const char *Text;
};

constexpr const char *kRegSpec = "spec register name=mem regs=1 vals=2\n";
constexpr const char *kCntSpec = "spec counter name=c counters=1 mod=2\n";

const LintGolden kGoldens[] = {
    {"parse-error", LintSeverity::Error,
     "spec register name=mem regs=1 vals=2\n"
     "thread tx { mem.read(0) \n"}, // unclosed transaction body
    {"unknown-engine", LintSeverity::Error,
     "spec register name=mem regs=1 vals=2\n"
     "engine speculative\n"
     "thread tx { mem.write(0, 1) }\n"},
    {"unknown-check", LintSeverity::Error,
     "spec register name=mem regs=1 vals=2\n"
     "thread tx { mem.write(0, 1) }\n"
     "check linearizability\n"},
    {"unknown-inject", LintSeverity::Error,
     "spec register name=mem regs=1 vals=2\n"
     "inject PUSH criterion (ix)\n"
     "thread tx { mem.write(0, 1) }\n"},
    {"unknown-object", LintSeverity::Error,
     "spec register name=mem regs=1 vals=2\n"
     "thread tx { disk.write(0, 1) }\n"},
    {"unknown-method", LintSeverity::Error,
     "spec register name=mem regs=1 vals=2\n"
     "thread tx { mem.swap(0, 1) }\n"},
    {"arity-mismatch", LintSeverity::Error,
     "spec register name=mem regs=1 vals=2\n"
     "thread tx { mem.read(0, 1) }\n"},
    {"void-result-binding", LintSeverity::Error,
     "spec counter name=c counters=1 mod=2\n"
     "thread tx { v := c.inc(0) }\n"},
    {"uninitialized-variable", LintSeverity::Error,
     "spec register name=mem regs=1 vals=2\n"
     "thread tx { mem.write(0, v) }\n"},
    {"empty-transaction", LintSeverity::Warning,
     "spec register name=mem regs=1 vals=2\n"
     "thread tx { skip }\n"},
    {"dead-choice", LintSeverity::Warning,
     "spec register name=mem regs=1 vals=2\n"
     "thread tx { (mem.write(0, 1) + mem.write(0, 1)) }\n"},
    {"dead-loop", LintSeverity::Warning,
     "spec register name=mem regs=1 vals=2\n"
     "thread tx { mem.write(0, 1); (skip)* }\n"},
    {"never-enabled", LintSeverity::Warning,
     "spec register name=mem regs=1 vals=2\n"
     "thread tx { mem.write(0, 7) }\n"}, // value outside vals=2
};

} // namespace

TEST(Lint, GoldensFireTheirCheck) {
  for (const LintGolden &G : kGoldens) {
    LintReport R = lintScenarioText("golden.pp", G.Text);
    ASSERT_FALSE(R.Diags.empty()) << G.Check << " did not fire:\n" << G.Text;
    bool Found = false;
    for (const LintDiag &D : R.Diags) {
      if (D.Check == G.Check) {
        Found = true;
        EXPECT_EQ(D.Severity, G.Severity) << G.Check;
        EXPECT_GT(D.Line, 0u) << G.Check;
        EXPECT_EQ(D.File, "golden.pp") << G.Check;
      }
    }
    EXPECT_TRUE(Found) << G.Check << " missing; got:\n" << R.render();
  }
}

TEST(Lint, NeverEnabledNeedsAnExactFamily) {
  // put(0, 9) stores a value outside vals=4 and can never fire.  But this
  // map has more reachable sets than the bound, so its family is only a
  // prefix of the reachable space: the linter cannot tell a call that
  // never fires from one that fires past the bound, and stays silent.
  LintReport R = lintScenarioText("big.pp", "spec map name=m keys=8 vals=4\n"
                                            "thread tx { m.put(0, 9) }\n");
  EXPECT_TRUE(R.clean()) << R.render();
}

TEST(Lint, DiagnosticsRenderMachineReadably) {
  LintReport R = lintScenarioText(
      "x.pp", "spec register name=mem regs=1 vals=2\nengine warp\n"
              "thread tx { mem.write(0, 1) }\n");
  ASSERT_EQ(R.Diags.size(), 1u);
  EXPECT_EQ(R.Diags[0].render(),
            "x.pp:2: error: [unknown-engine] unknown engine 'warp'");
}

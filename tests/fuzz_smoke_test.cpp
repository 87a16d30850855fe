//===- tests/fuzz_smoke_test.cpp - Differential fuzz smoke campaign -----------===//
//
// The tier-1 fuzz gate: a short fixed-seed differential campaign over all
// ten engines and all seven spec kinds.  Fails on any model/implementation
// discrepancy and on any engine that finished the campaign without
// exercising its whole expected rule set — i.e. both "the engines are
// correct under the model's three ground truths" and "the fuzzer actually
// tested them".
//
//===----------------------------------------------------------------------===//

#include "fuzz/Campaign.h"

#include <gtest/gtest.h>

#include <set>

using namespace pushpull;

namespace {

CampaignConfig smokeConfig() {
  CampaignConfig C;
  C.Gen.Seed = 1;
  C.Runs = 140; // Two sweeps of the 10-engine x 7-spec-kind grid.
  C.MaxSeconds = 25;
  C.Verbose = false;
  C.ReproDir = ::testing::TempDir() + "/ppfuzz-smoke";
  return C;
}

} // namespace

TEST(FuzzSmoke, CampaignFindsNoDiscrepancies) {
  CampaignReport R = Campaign(smokeConfig()).run();
  EXPECT_EQ(R.Discrepancies, 0u) << R.toString();
  EXPECT_TRUE(R.uncoveredRules().empty()) << R.toString();
  EXPECT_TRUE(R.ok()) << R.toString();
  EXPECT_EQ(R.RunsDone, 140u) << "campaign hit its wall-clock budget";

  // Every engine ran and committed transactions (the campaign was not
  // spinning on aborts or build errors).
  ASSERT_EQ(R.PerEngine.size(), allEngineNames().size());
  uint32_t Union = 0;
  for (const auto &[Engine, Cov] : R.PerEngine) {
    EXPECT_GT(Cov.Runs, 0u) << Engine;
    EXPECT_GT(Cov.Commits, 0u) << Engine;
    EXPECT_EQ(Cov.Discrepancies, 0u) << Engine;
    Union |= Cov.observedMask();
  }
  // APP/UNAPP/PUSH/UNPUSH/PULL/UNPULL/CMT all fired somewhere.
  EXPECT_EQ(Union, 0x7Fu);

  // The interning/memoization context rode along with every report.
  EXPECT_GT(R.Caches.Intern.TransitionMemoHits, 0u);
  EXPECT_GT(R.Caches.Intern.StatesInterned, 0u);
}

TEST(FuzzSmoke, GeneratorCyclesTheEngineSpecGrid) {
  GeneratorConfig GC;
  GC.Seed = 3;
  Generator G(GC);
  std::set<std::pair<std::string, std::string>> Seen;
  size_t Pairs = allEngineNames().size() * (allSpecKinds().size() + 1);
  for (size_t I = 0; I < Pairs; ++I) {
    FuzzCase F = G.next();
    ASSERT_FALSE(F.Specs.empty());
    ASSERT_FALSE(F.Threads.empty());
    EXPECT_GT(F.totalOps(), 0u);
    Seen.insert({F.Engine,
                 F.Specs.size() > 1 ? "composite" : F.Specs[0].Kind});
  }
  // One full cycle covers every (engine, spec-kind) pair exactly once.
  EXPECT_EQ(Seen.size(), Pairs);
}

TEST(FuzzSmoke, CasesRoundTripThroughScenarioText) {
  // A case serialized to scenario text and re-parsed runs *identically* —
  // the property that makes written reproducers trustworthy.
  GeneratorConfig GC;
  GC.Seed = 11;
  Generator G(GC);
  DiffRunner Runner;
  for (int I = 0; I < 10; ++I) {
    FuzzCase F = G.next();
    DiffReport Direct = Runner.run(F);
    ASSERT_TRUE(Direct.Built) << Direct.BuildError;

    ScenarioParseResult PR = parseScenario(F.toScenarioText());
    ASSERT_TRUE(PR.ok()) << PR.Error << "\n" << F.toScenarioText();
    DiffReport Replayed = Runner.run(*PR.Parsed);
    ASSERT_TRUE(Replayed.Built) << Replayed.BuildError;

    EXPECT_EQ(Direct.Stats.toString(), Replayed.Stats.toString())
        << F.toScenarioText();
    EXPECT_EQ(Direct.Serializable, Replayed.Serializable);
  }
}

TEST(FuzzSmoke, ExpectedMasksCoverAllRulesJointly) {
  uint32_t Union = 0;
  for (const std::string &E : allEngineNames()) {
    uint32_t Mask = expectedRuleMask(E);
    EXPECT_NE(Mask, 0u) << E;
    Union |= Mask;
  }
  EXPECT_EQ(Union, 0x7Fu);
  EXPECT_EQ(expectedRuleMask("no-such-engine"), 0u);
}

TEST(FuzzSmoke, UnbuildableCasesFailTheCampaign) {
  // A config built without the CLI can name an engine or spec kind that
  // does not exist; every such case counts, and the campaign fails.
  CampaignConfig C = smokeConfig();
  C.MutantPct = 0;
  C.Runs = 5;
  C.Gen.Engines = {"bogus"};
  CampaignReport R = Campaign(C).run();
  EXPECT_EQ(R.BuildErrors, 5u) << R.toString();
  EXPECT_NE(R.FirstBuildError.find("bogus"), std::string::npos)
      << R.FirstBuildError;
  EXPECT_NE(R.toString().find("BUILD ERRORS: 5"), std::string::npos);
  EXPECT_FALSE(R.ok());

  C.Gen.Engines = {"optimistic"}; // Its one directed case builds.
  C.Gen.SpecKinds = {"bogus"};
  R = Campaign(C).run();
  EXPECT_EQ(R.BuildErrors, 4u) << R.toString();
  EXPECT_FALSE(R.ok());
}

TEST(FuzzSmoke, EveryGeneratedCaseParsesStrictly) {
  // The generator writes only keys its engines and specs take (hybrid
  // cases carry no keylocks), so every case's text passes the strict
  // scenario parser.
  GeneratorConfig GC;
  GC.Seed = 5;
  Generator G(GC);
  for (int I = 0; I < 140; ++I) {
    FuzzCase F = G.next();
    ScenarioParseResult PR = parseScenario(F.toScenarioText());
    EXPECT_TRUE(PR.ok()) << PR.Error << "\n" << F.toScenarioText();
    if (F.Engine == "hybrid") {
      EXPECT_EQ(F.EngineOpts.count("keylocks"), 0u);
    }
  }
}

//===- tests/regress_test.cpp - Replay the regression corpus ------------------===//
//
// Replays every scenario under scenarios/regress/ through the full
// differential battery (atomic-oracle replay, opacity classification,
// per-rule invariants).  The corpus holds one minimal clinic per engine,
// each crafted to drive that engine through its rarest rules; a corpus
// file failing here means an engine regressed on a configuration that was
// once interesting enough to pin down.
//
//===----------------------------------------------------------------------===//

#include "fuzz/DiffRunner.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace pushpull;

namespace {

std::filesystem::path regressDir() {
  return std::filesystem::path(PUSHPULL_SCENARIOS_DIR) / "regress";
}

std::vector<std::filesystem::path> corpusFiles() {
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(regressDir()))
    if (E.path().extension() == ".pp")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

} // namespace

TEST(Regress, CorpusHasOneScenarioPerEngine) {
  std::set<std::string> Engines;
  for (const auto &Path : corpusFiles()) {
    std::ifstream In(Path);
    ASSERT_TRUE(In) << Path;
    std::ostringstream Buf;
    Buf << In.rdbuf();
    ScenarioParseResult PR = parseScenario(Buf.str());
    ASSERT_TRUE(PR.ok()) << Path << ": " << PR.Error;
    Engines.insert(PR.Parsed->Engine);
  }
  for (const std::string &E : allEngineNames())
    EXPECT_TRUE(Engines.count(E)) << "no regress scenario for engine " << E;
}

TEST(Regress, EveryScenarioReplaysCleanThroughTheDiffRunner) {
  uint64_t RuleTotals[7] = {};
  size_t N = 0;
  for (const auto &Path : corpusFiles()) {
    ++N;
    std::ifstream In(Path);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    ScenarioParseResult PR = parseScenario(Buf.str());
    ASSERT_TRUE(PR.ok()) << Path << ": " << PR.Error;

    DiffReport R = DiffRunner().run(*PR.Parsed);
    ASSERT_TRUE(R.Built) << Path << ": " << R.BuildError;
    EXPECT_FALSE(R.discrepancy()) << Path << "\n" << R.toString();
    EXPECT_TRUE(R.Stats.Quiescent) << Path << "\n" << R.toString();
    EXPECT_EQ(R.Serializable, Tri::Yes) << Path << "\n" << R.toString();
    EXPECT_GT(R.RulesInvariantChecked, 0u) << Path;
    for (int K = 0; K < 7; ++K)
      RuleTotals[K] += R.Stats.RuleCounts[K];
  }
  EXPECT_GE(N, allEngineNames().size());

  // Jointly the clinics exercise every one of the seven rules.
  for (int K = 0; K < 7; ++K)
    EXPECT_GT(RuleTotals[K], 0u)
        << "corpus never fired " << toString(static_cast<RuleKind>(K));
}

//===- tests/scenario_test.cpp - Scenario format + runner ---------------------===//

#include "sim/Scenario.h"

#include "analysis/Lint.h"
#include "analysis/MoverTable.h"
#include "fuzz/Generator.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "spec/RegisterSpec.h"
#include "stress/StressRunner.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace pushpull;

namespace {

const char *Fig2Scenario = R"(
# Figure 2 in scenario form.
spec map name=map keys=8 vals=4
engine boosting seed=42
schedule random seed=7 maxsteps=100000
thread tx { a := map.put(1, 2) }; tx { b := map.get(1) }
thread tx { c := map.put(1, 3) }
check serializability
check opacity
check invariants
)";

} // namespace

TEST(ScenarioParse, Figure2Parses) {
  ScenarioParseResult R = parseScenario(Fig2Scenario);
  ASSERT_TRUE(R.ok()) << R.Error;
  const Scenario &S = *R.Parsed;
  EXPECT_EQ(S.Engine, "boosting");
  EXPECT_EQ(S.EngineOpts.at("seed"), "42");
  EXPECT_EQ(S.Threads.size(), 2u);
  EXPECT_EQ(S.Threads[0].size(), 2u) << "two transactions on thread 0";
  EXPECT_EQ(S.Checks.size(), 3u);
  EXPECT_EQ(S.ScheduleSeed, 7u);
  EXPECT_EQ(S.MaxSteps, 100000u);
}

TEST(ScenarioParse, CompositeFromMultipleSpecs) {
  ScenarioParseResult R = parseScenario(R"(
spec set name=skiplist keys=4
spec counter name=size counters=1 mod=8
engine hybrid htm=size conflictpct=100
thread tx { s := skiplist.add(1); size.inc(0) }
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_NE(R.Parsed->Spec->name().find("composite"), std::string::npos);
}

TEST(ScenarioParse, Errors) {
  EXPECT_FALSE(parseScenario("").ok());
  EXPECT_FALSE(parseScenario("spec map\n").ok()) << "no threads";
  EXPECT_FALSE(parseScenario("spec nosuch\nthread tx { skip }\n").ok());
  EXPECT_FALSE(
      parseScenario("spec map\nthread map.get(1)\n").ok())
      << "method outside a transaction";
  EXPECT_FALSE(parseScenario("spec map\nfrobnicate\n").ok());
  EXPECT_FALSE(
      parseScenario("spec map\nspec map\nthread tx { skip }\n").ok())
      << "duplicate object name";
  {
    ScenarioParseResult R =
        parseScenario("spec map\nthread tx { oops \n");
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.ErrorLine, 2u);
  }
}

TEST(ScenarioParse, CommentsAndBlankLines) {
  ScenarioParseResult R = parseScenario(R"(
# leading comment

spec register regs=2 vals=2   # trailing comment
thread tx { v := register.read(0) }
)");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(FlattenTransactions, Shapes) {
  std::string Error;
  auto One = flattenTransactions(parseOrDie("tx { o.a() }"), Error);
  EXPECT_EQ(One.size(), 1u);
  auto Three = flattenTransactions(
      parseOrDie("tx { o.a() }; tx { o.b() }; tx { o.c() }"), Error);
  EXPECT_EQ(Three.size(), 3u);
  EXPECT_TRUE(Error.empty());
  auto Bad = flattenTransactions(parseOrDie("o.a(); tx { o.b() }"), Error);
  EXPECT_TRUE(Bad.empty());
  EXPECT_FALSE(Error.empty());
}

TEST(ScenarioRun, Figure2EndToEnd) {
  ScenarioParseResult R = parseScenario(Fig2Scenario);
  ASSERT_TRUE(R.ok()) << R.Error;
  ScenarioOutcome O = runScenario(*R.Parsed);
  EXPECT_TRUE(O.Ok);
  EXPECT_EQ(O.Stats.Commits, 3u);
  ASSERT_EQ(O.CheckResults.size(), 3u);
  EXPECT_EQ(O.CheckResults[0], "serializability: yes");
  EXPECT_NE(O.CheckResults[1].find("in the opaque fragment"),
            std::string::npos);
  EXPECT_EQ(O.CheckResults[2], "invariants: hold");
  EXPECT_FALSE(O.Trace.empty());
}

TEST(ScenarioRun, EveryEngineRunsTheRegisterScenario) {
  for (const char *Engine :
       {"optimistic", "checkpoint", "boosting", "pessimistic", "irrevocable",
        "dependent", "early-release", "htm", "htm-word"}) {
    std::string Text = std::string(R"(
spec register name=mem regs=2 vals=2
engine )") + Engine + R"(
schedule random seed=5 maxsteps=200000
thread tx { v := mem.read(0); mem.write(1, 1) }
thread tx { mem.write(0, 1) }
check serializability-any
)";
    ScenarioParseResult R = parseScenario(Text);
    ASSERT_TRUE(R.ok()) << Engine << ": " << R.Error;
    ScenarioOutcome O = runScenario(*R.Parsed);
    EXPECT_TRUE(O.Ok) << Engine << " failed: "
                      << (O.CheckResults.empty() ? "no checks"
                                                 : O.CheckResults[0]);
  }
}

TEST(ScenarioRun, HybridScenario) {
  ScenarioParseResult R = parseScenario(R"(
spec set name=skiplist keys=4
spec counter name=size counters=1 mod=8
engine hybrid htm=size conflictpct=100 seed=3
schedule roundrobin seed=1 maxsteps=100000
thread tx { s := skiplist.add(1); size.inc(0) }
thread tx { t := skiplist.add(2); size.inc(0) }
check serializability
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  ScenarioOutcome O = runScenario(*R.Parsed);
  EXPECT_TRUE(O.Ok) << (O.CheckResults.empty() ? "?" : O.CheckResults[0]);
  EXPECT_EQ(O.Stats.Commits, 2u);
}

TEST(ScenarioRun, UnknownEngineReportsError) {
  ScenarioParseResult R = parseScenario(R"(
spec register regs=1 vals=2
engine quantum
thread tx { v := register.read(0) }
)");
  ASSERT_TRUE(R.ok());
  ScenarioOutcome O = runScenario(*R.Parsed);
  EXPECT_FALSE(O.Ok);
}

TEST(ScenarioRun, BankScenario) {
  ScenarioParseResult R = parseScenario(R"(
spec bank accounts=2 cap=4 initial=2
engine boosting seed=9
thread tx { bank.deposit(0, 1) }; tx { r := bank.withdraw(1, 1) }
thread tx { b := bank.balance(0) }
check serializability
check invariants
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  ScenarioOutcome O = runScenario(*R.Parsed);
  EXPECT_TRUE(O.Ok) << (O.CheckResults.empty() ? "?" : O.CheckResults[0]);
}

TEST(ScenarioRun, AuditRecordsCriteria) {
  ScenarioParseResult R = parseScenario(Fig2Scenario);
  ASSERT_TRUE(R.ok()) << R.Error;
  ScenarioOutcome O = runScenario(*R.Parsed);
  ASSERT_TRUE(O.Ok);
  EXPECT_NE(O.Audit.find("PUSH criterion (ii)"), std::string::npos);
  EXPECT_NE(O.Audit.find("CMT criterion (iii)"), std::string::npos);
  EXPECT_EQ(O.Audit.find("rejected"), std::string::npos)
      << "the audit records applied rules only";
}

TEST(ScenarioRun, PctSchedulePolicy) {
  ScenarioParseResult R = parseScenario(R"(
spec register name=mem regs=2 vals=2
engine optimistic seed=2
schedule pct seed=6 maxsteps=200000 changepoints=2
thread tx { v := mem.read(0); mem.write(1, 1) }
thread tx { mem.write(0, 1) }
check serializability
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Parsed->Policy, SchedulePolicy::PriorityChangePoints);
  EXPECT_EQ(R.Parsed->ChangePoints, 2u);
  ScenarioOutcome O = runScenario(*R.Parsed);
  EXPECT_TRUE(O.Ok) << (O.CheckResults.empty() ? "?" : O.CheckResults[0]);
}

// -- Strict numbers and keys --------------------------------------------------

TEST(ScenarioParse, BadNumbersAndKeysNameTheirField) {
  const std::string Threads = "thread tx { mem.write(0, 1) }\n"
                              "thread tx { v := mem.read(0) }\n";
  const std::string Mem = "spec register name=mem regs=2 vals=2\n";
  struct Case {
    std::string Text;
    size_t Line;
    const char *Names;
  } Cases[] = {
      {Mem + "engine boosting seed=x\n" + Threads, 2, "seed"},
      {Mem + "schedule random seed=1 maxsteps=5x\n" + Threads, 2,
       "maxsteps"},
      {"spec counter name=mem counters=-1\n" + Threads, 1, "counters"},
      {"spec register name=mem regs=65 vals=2\n" + Threads, 1, "regs"},
      {"spec bank name=mem accounts=2 cap=2 initial=3\n" + Threads, 1,
       "initial"},
      {Mem + "schedule pct changepoints=4097\n" + Threads, 2,
       "changepoints"},
      {Mem + "engine dependent abortpct=101\n" + Threads, 2, "abortpct"},
      {Mem + "engine irrevocable irrevocable=2\n" + Threads, 2,
       "irrevocable"},
      {Mem + "schedule replay picks=0,2\n" + Threads, 2, "picks"},
      {Mem + "schedule replay picks=0,,1\n" + Threads, 2, "picks"},
      {Mem + "engine boosting sed=5\n" + Threads, 2, "'sed'"},
      {Mem + "engine hybrid keylocks=1\n" + Threads, 2, "'keylocks'"},
      {Mem + "schedule random maxstep=10\n" + Threads, 2, "'maxstep'"},
      {Mem + "schedule random picks=0\n" + Threads, 2, "'picks'"},
      {"spec register name=mem regs=2 vals=2 regz=3\n" + Threads, 1,
       "'regz'"},
      {Mem + "thread tx { mem.write(0, 9223372036854775808) }\n", 2,
       "integer literal"},
  };
  for (const Case &C : Cases) {
    ScenarioParseResult R = parseScenario(C.Text);
    ASSERT_FALSE(R.ok()) << C.Text;
    EXPECT_EQ(R.ErrorLine, C.Line) << R.Error;
    EXPECT_NE(R.Error.find(C.Names), std::string::npos) << R.Error;
  }
}

TEST(ScenarioParse, RangeEdgesStayValid) {
  ScenarioParseResult R = parseScenario(R"(
spec register name=mem regs=64 vals=64
engine irrevocable seed=18446744073709551615 irrevocable=1
schedule pct seed=0 maxsteps=1 changepoints=4096
thread tx { mem.write(0, -9223372036854775808) }
thread tx { mem.write(63, 9223372036854775807) }
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Parsed->ChangePoints, 4096u);
  // An unknown engine is the linter's and the run's to report, with its
  // options unread.
  EXPECT_TRUE(parseScenario("spec register\nengine warp seed=x\n"
                            "thread tx { register.read(0) }\n")
                  .ok());
}

TEST(ScenarioParse, MakeEngineReportsBadOptions) {
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  M.addThread({call("mem", "read", {Value(0)})});
  std::string Error;
  EXPECT_FALSE(makeEngine("boosting", {{"seed", "x"}}, M, Error));
  EXPECT_NE(Error.find("seed needs a whole number"), std::string::npos)
      << Error;
  EXPECT_FALSE(makeEngine("dependent", {{"abortpct", "101"}}, M, Error));
  EXPECT_NE(Error.find("abortpct needs a whole number from 0 to 100"),
            std::string::npos)
      << Error;
  // Thread keys are the parser's to bound: the prover builds its engine
  // over a machine with no threads.
  PushPullMachine NoThreads(Spec, Movers);
  EXPECT_TRUE(makeEngine("irrevocable", {{"irrevocable", "1"}}, NoThreads,
                         Error))
      << Error;
}

TEST(ScenarioParse, ProverBuildsIrrevocableEngineForAnyThread) {
  auto Prove = [](const std::string &Irrevocable) {
    ScenarioParseResult R = parseScenario(
        "spec register name=mem regs=2 vals=2\n"
        "engine irrevocable seed=1 irrevocable=" +
        Irrevocable +
        "\n"
        "thread tx { mem.write(0, 1) }\n"
        "thread tx { v := mem.read(1) }\n");
    if (!R.ok())
      return ProveResult{ProveResult::Verdict::Unproved, R.Error};
    CommutativityDB DB(*R.Parsed->Spec, R.Parsed->Movers.MaxReachableSets);
    return proveSerializable(*R.Parsed, DB);
  };
  ProveResult Zero = Prove("0"), One = Prove("1");
  EXPECT_EQ(Zero.V, ProveResult::Verdict::Proved) << Zero.Detail;
  EXPECT_EQ(One.V, Zero.V) << One.Detail;
  EXPECT_EQ(One.Detail, Zero.Detail);
}

// -- Byte-mutation smoke over scenarios/ ----------------------------------------

namespace {

/// One byte edit of \p Text: replace, insert or delete, mostly at a digit
/// or '=' and mostly writing one, sometimes inserting a run of digits.
void mutateBytes(std::string &Text, Rng &R) {
  static const char Biased[] = "0123456789=-,";
  auto Byte = [&] {
    return R.chance(3, 4) ? Biased[R.below(sizeof(Biased) - 1)]
                          : static_cast<char>(R.below(256));
  };
  size_t At = R.below(Text.size() + 1);
  if (R.chance(2, 3)) // Slide to the next digit or '=' (numbers and keys).
    At = std::min(Text.find_first_of("0123456789=", At), Text.size());
  switch (R.below(4)) {
  case 0:
    if (At < Text.size())
      Text[At] = Byte();
    break;
  case 1:
    Text.insert(Text.begin() + static_cast<std::ptrdiff_t>(At), Byte());
    break;
  case 2:
    if (At < Text.size())
      Text.erase(At, 1);
    break;
  default: {
    std::string Run(1 + R.below(24), '0');
    for (char &C : Run)
      C = static_cast<char>('0' + R.below(10));
    Text.insert(At, Run);
    break;
  }
  }
}

} // namespace

// The parser and the linter take any bytes: an escaped exception or a
// crash fails this test (there is no catch), and every parse failure
// carries the line it is on unless the whole file is at fault.
TEST(ScenarioMutation, ParserAndLinterSurviveByteMutations) {
  namespace fs = std::filesystem;
  std::vector<std::string> Seeds;
  std::vector<fs::path> Paths;
  for (const auto &E : fs::recursive_directory_iterator(PUSHPULL_SCENARIOS_DIR))
    if (E.is_regular_file() && E.path().extension() == ".pp")
      Paths.push_back(E.path());
  std::sort(Paths.begin(), Paths.end());
  for (const fs::path &P : Paths) {
    std::ifstream In(P);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Seeds.push_back(Buf.str());
  }
  ASSERT_FALSE(Seeds.empty());

  Rng R(20151013);
  size_t Linted = 0;
  for (int I = 0; I < 300; ++I) {
    std::string Text = Seeds[R.below(Seeds.size())];
    for (uint64_t E = R.range(1, 3); E > 0; --E)
      mutateBytes(Text, R);
    ScenarioParseResult P = parseScenario(Text);
    if (!P.ok()) {
      EXPECT_FALSE(P.Error.empty());
      if (P.ErrorLine == 0) {
        EXPECT_EQ(P.Error.rfind("scenario declares no", 0), 0u)
            << P.Error << "\n" << Text;
      }
      continue;
    }
    lintScenarioText("mutant.pp", Text);
    ++Linted;
  }
  EXPECT_GT(Linted, 0u);
}

// -- One printer: round trips through the parser -------------------------------

namespace {

/// The checked-in scenarios, in path order.
std::vector<std::pair<std::string, std::string>> scenarioFiles() {
  namespace fs = std::filesystem;
  std::vector<fs::path> Paths;
  for (const auto &E : fs::recursive_directory_iterator(PUSHPULL_SCENARIOS_DIR))
    if (E.is_regular_file() && E.path().extension() == ".pp")
      Paths.push_back(E.path());
  std::sort(Paths.begin(), Paths.end());
  std::vector<std::pair<std::string, std::string>> Out;
  for (const fs::path &P : Paths) {
    std::ifstream In(P);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Out.emplace_back(P.string(), Buf.str());
  }
  return Out;
}

/// \p Text without its leading comment lines.
std::string afterHeader(const std::string &Text) {
  size_t At = 0;
  while (At < Text.size() && Text[At] == '#')
    At = std::min(Text.find('\n', At), Text.size() - 1) + 1;
  return Text.substr(At);
}

/// printScenario of what \p Text parses to ("" when it does not parse).
std::string reprint(const std::string &Text) {
  ScenarioParseResult P = parseScenario(Text);
  EXPECT_TRUE(P.ok()) << P.ErrorLine << ": " << P.Error << "\n" << Text;
  return P.ok() ? printScenario(*P.Parsed) : "";
}

/// Every field of \p S that decides its run, written independently of
/// printScenario: equal dumps are the same run.  A replay reads no seed or
/// change points.
std::string runFields(const Scenario &S) {
  std::ostringstream Out;
  for (const SpecDesc &D : S.Specs) {
    Out << "spec " << D.Kind;
    for (const auto &[K, V] : D.Opts)
      Out << ' ' << K << '=' << V;
    Out << '\n';
  }
  Out << "engine " << S.Engine;
  for (const auto &[K, V] : S.EngineOpts)
    Out << ' ' << K << '=' << V;
  Out << "\npolicy " << static_cast<int>(S.Policy) << " maxsteps "
      << S.MaxSteps;
  if (S.Policy != SchedulePolicy::Replay)
    Out << " seed " << S.ScheduleSeed << " changepoints " << S.ChangePoints;
  for (uint32_t P : S.ReplayPicks)
    Out << ' ' << P;
  Out << "\ninject " << S.DisabledCriterion << '\n';
  for (const auto &Txs : S.Threads) {
    for (const CodePtr &Tx : Txs)
      Out << printCode(Tx) << " ; ";
    Out << '\n';
  }
  for (const std::string &Check : S.Checks)
    Out << "check " << Check << '\n';
  return Out.str();
}

/// runFields of what \p Text parses to ("" when it does not parse).
std::string parsedFields(const std::string &Text) {
  ScenarioParseResult P = parseScenario(Text);
  return P.ok() ? runFields(*P.Parsed) : "";
}

} // namespace

// Every `.pp` and `.ppsched` the tools write is a header comment plus
// printScenario, which writes exactly what parseScenario reads back: the
// text prints back to itself and describes the same run.
TEST(ScenarioPrint, OnePrinterRoundTrips) {
  // Checked-in scenarios: parse, print, re-parse, print the same text,
  // which is the file's run.
  std::vector<std::pair<std::string, std::string>> Files = scenarioFiles();
  ASSERT_FALSE(Files.empty());
  for (const auto &[Path, Text] : Files) {
    std::string Once = reprint(Text);
    EXPECT_FALSE(Once.empty()) << Path;
    EXPECT_EQ(reprint(Once), Once) << Path;
    EXPECT_EQ(parsedFields(Once), parsedFields(Text)) << Path;
  }

  // Generated fuzz cases: the text after the header prints to itself and
  // is the case's run.
  GeneratorConfig GC;
  GC.Seed = 7;
  Generator Gen(GC);
  for (int I = 0; I < 500; ++I) {
    FuzzCase F = Gen.next();
    std::string Text = afterHeader(F.toScenarioText());
    ASSERT_EQ(reprint(Text), Text) << "case " << I;
    ASSERT_EQ(parsedFields(Text), runFields(F.toScenario())) << "case " << I;
  }

  // A stress dump of an injected fault at one worker: a replay schedule,
  // printed with its picks, that prints to itself.
  StressOutcome O;
  for (uint64_t Seed = 1; Seed <= 4 && O.Dumps.empty(); ++Seed) {
    StressConfig C;
    C.Engine = "pessimistic";
    C.SpecKind = "register";
    C.Workers = 1;
    C.Rounds = 4;
    C.Seed = Seed;
    C.DisabledCriterion = "PUSH criterion (ii)";
    O = StressRunner(C).run();
  }
  ASSERT_FALSE(O.Dumps.empty()) << "the injected fault was never convicted";
  for (const std::string &Dump : O.Dumps) {
    std::string Text = afterHeader(Dump);
    EXPECT_NE(Text.find("\nschedule replay picks="), std::string::npos)
        << Text;
    EXPECT_EQ(reprint(Text), Text);
  }
}

//===- tools/pprun.cpp - Scenario runner --------------------------------------===//
//
// Run a PUSH/PULL scenario file: build the declared specification and
// engine, execute the thread programs to quiescence, print the rule
// trace, the committed shared log, the statistics, and the verdicts of
// the requested checks.
//
//   pprun <scenario-file>             run a scenario
//   pprun --example                   print a sample scenario and exit
//   pprun --trace <scenario-file>     also print the full rule trace
//   pprun --criteria <scenario-file>  also print the criteria audit (every
//                                     applied rule with each Figure 5
//                                     criterion's verdict)
//   pprun --stats <scenario-file>     also print interning/memoization
//                                     effectiveness counters
//   pprun --reduction MODE ...        partial-order reduction for `check
//                                     explore`: none | sleep | persistent |
//                                     persistent+symmetry
//   pprun --max-pairs N ...           precongruence pair budget per query
//   pprun --max-reachable N ...       reachable-state-set enumeration bound
//   pprun --commut-db ...             enable the certified commutativity
//                                     table for `check explore`: PUSH x PUSH
//                                     independence refinement plus the
//                                     G-order quotient key.  Refused when
//                                     the program's calls do not all map
//                                     into the spec's probe alphabet.
//   pprun --static-prove ...          run the whole-program serializability
//                                     prover first; when it returns PROVED,
//                                     `check explore` skips the per-terminal
//                                     serializability oracle replay
//
// Every valued option also takes the --name=VALUE form.  Exit status 0
// iff the run finished and every check passed, 1 if it did not, 2 on a
// usage or input error: an unknown option, a second scenario file, a
// number that is not a whole decimal from 1 to its field's maximum, an
// unknown reduction mode, or a scenario that cannot be read or parsed.
//
//===----------------------------------------------------------------------===//

#include "Cli.h"
#include "analysis/MoverTable.h"
#include "sim/Reduction.h"
#include "sim/Scenario.h"

#include <cstdio>
#include <memory>

using namespace pushpull;

static const char *ExampleScenario = R"(# Figure 2 of the paper, as a scenario.
spec map name=map keys=8 vals=4
engine boosting seed=42
schedule random seed=7 maxsteps=100000
thread tx { a := map.put(1, 2) }; tx { b := map.get(1) }
thread tx { c := map.put(1, 3) }
thread tx { d := map.put(3, 1); e := map.get(1) }
check serializability
check opacity
check invariants
)";

int main(int argc, char **argv) {
  bool Example = false, ShowTrace = false, ShowCriteria = false,
       ShowStats = false, UseCommutDB = false, StaticProve = false;
  // Zero means "not given": every numeric option is at least 1.
  size_t MaxPairs = 0, MaxReachable = 0;
  std::string ReduceMode, Path;
  cli::OptionTable Opts("pprun", "pprun [options] <scenario-file>\n"
                                 "       pprun --example");
  Opts.flag("--example", Example, "print a sample scenario and exit")
      .flag("--trace", ShowTrace, "also print the full rule trace")
      .flag("--criteria", ShowCriteria, "also print the criteria audit")
      .flag("--stats", ShowStats, "also print the cache counters")
      .text("--reduction", "MODE", ReduceMode,
            "partial-order reduction for check explore", reductionNames())
      .number("--max-pairs", MaxPairs, 1, "precongruence pair budget")
      .number("--max-reachable", MaxReachable, 1,
              "reachable-state-set enumeration bound")
      .flag("--commut-db", UseCommutDB, "certified commutativity table")
      .flag("--static-prove", StaticProve, "run the prover first")
      .operand("scenario file", Path);
  Opts.parse(argc, argv);
  if (Example) {
    std::fputs(ExampleScenario, stdout);
    return 0;
  }
  if (Path.empty())
    Opts.fail("missing scenario file");

  std::unique_ptr<Scenario> Parsed = cli::loadScenario(Path);
  if (!Parsed)
    return 2;
  Scenario &S = *Parsed;
  if (!ReduceMode.empty())
    reductionFromString(ReduceMode, S.ExplorerReduction);
  if (MaxPairs > 0)
    S.Pre.MaxPairs = MaxPairs;
  if (MaxReachable > 0)
    S.Movers.MaxReachableSets = MaxReachable;
  std::printf("spec:     %s\n", S.Spec->name().c_str());
  std::printf("engine:   %s\n", S.Engine.c_str());
  std::printf("threads:  %zu\n", S.Threads.size());

  std::unique_ptr<CommutativityDB> DB;
  if (UseCommutDB || StaticProve)
    DB = std::make_unique<CommutativityDB>(*S.Spec,
                                           S.Movers.MaxReachableSets);
  if (UseCommutDB) {
    std::string Why;
    if (!DB->coversProgram(S.Threads, &Why)) {
      // Not merely ineffective: the certificates only cover runs whose
      // every operation is a probe instance, so enabling the quotient
      // here would be unsound.
      std::fprintf(stderr, "pprun: error: --commut-db: %s\n", Why.c_str());
      return 2;
    }
    S.CommutDB = DB.get();
  }
  bool Proved = false;
  if (StaticProve) {
    ProveResult R = proveSerializable(S, *DB);
    std::printf("prove:    %s (%s)\n", toString(R.V).c_str(),
                R.Detail.c_str());
    if (R.V == ProveResult::Verdict::Proved) {
      Proved = true;
      S.SkipOracleReplay = true;
    }
  }

  ScenarioOutcome O = runScenario(S);
  if (Proved)
    ++O.Caches.ProvedPrograms;
  std::printf("run:      %s\n", O.Stats.toString().c_str());
  if (ShowTrace)
    std::printf("\nrule trace:\n%s", O.Trace.c_str());
  if (ShowCriteria)
    std::printf("\ncriteria audit:\n%s", O.Audit.c_str());
  std::printf("\ncommitted log: %s\n", O.CommittedLog.c_str());
  for (const std::string &R : O.CheckResults)
    std::printf("%s\n", R.c_str());
  if (ShowStats)
    std::printf("\ncache stats:\n%s", O.Caches.toString().c_str());
  std::printf("\n%s\n", O.Ok ? "OK" : "FAILED");
  return O.Ok ? 0 : 1;
}

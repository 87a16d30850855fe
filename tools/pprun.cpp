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
//   pprun --threads N ...             worker threads for `check explore`
//   pprun --reduction MODE ...        partial-order reduction for `check
//                                     explore`: none | sleep | persistent |
//                                     persistent+symmetry (also =MODE form)
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
// Exit status 0 iff the run finished and every check passed; 2 on a usage
// error (an unknown option, a second scenario file, or a number that is
// not a whole decimal from 1 to its field's maximum) or an unreadable
// scenario.
//
//===----------------------------------------------------------------------===//

#include "analysis/MoverTable.h"
#include "sim/Scenario.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <type_traits>

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
  bool ShowTrace = false;
  bool ShowCriteria = false;
  bool ShowStats = false;
  // Zero means "not given": every numeric option must be at least 1.
  unsigned Threads = 0;
  size_t MaxPairs = 0, MaxReachable = 0;
  Reduction Reduce = Reduction::None;
  bool HaveReduce = false;
  bool UseCommutDB = false, StaticProve = false;
  const char *Path = nullptr;

  auto ParseReduction = [&](const char *Mode) {
    if (!reductionFromString(Mode, Reduce)) {
      std::fprintf(stderr,
                   "error: --reduction wants none | sleep | persistent |"
                   " persistent+symmetry, got '%s'\n",
                   Mode);
      std::exit(2);
    }
    HaveReduce = true;
  };

  // A whole decimal from 1 to the maximum of \p Out's type: digits only,
  // no sign, no trailing characters, no overflow.
  auto NumArg = [&](int &I, const char *Flag, auto &Out) {
    if (std::strcmp(argv[I], Flag) != 0)
      return false;
    using T = std::remove_reference_t<decltype(Out)>;
    const uint64_t Max = std::numeric_limits<T>::max();
    const char *Text = I + 1 < argc ? argv[++I] : "";
    uint64_t V = 0;
    bool Ok = *Text != '\0';
    for (const char *P = Text; Ok && *P; ++P) {
      uint64_t D = static_cast<uint64_t>(*P - '0');
      Ok = *P >= '0' && *P <= '9' && V <= (Max - D) / 10;
      V = V * 10 + D;
    }
    if (!Ok || V == 0) {
      std::fprintf(stderr,
                   "error: %s needs a whole number from 1 to %llu, got "
                   "'%s'\n",
                   Flag, static_cast<unsigned long long>(Max), Text);
      std::exit(2);
    }
    Out = static_cast<T>(V);
    return true;
  };

  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--example") == 0) {
      std::fputs(ExampleScenario, stdout);
      return 0;
    }
    if (std::strcmp(argv[I], "--trace") == 0) {
      ShowTrace = true;
      continue;
    }
    if (std::strcmp(argv[I], "--criteria") == 0) {
      ShowCriteria = true;
      continue;
    }
    if (std::strcmp(argv[I], "--stats") == 0) {
      ShowStats = true;
      continue;
    }
    if (std::strcmp(argv[I], "--commut-db") == 0) {
      UseCommutDB = true;
      continue;
    }
    if (std::strcmp(argv[I], "--static-prove") == 0) {
      StaticProve = true;
      continue;
    }
    if (std::strcmp(argv[I], "--reduction") == 0) {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: --reduction needs a mode\n");
        return 2;
      }
      ParseReduction(argv[++I]);
      continue;
    }
    if (std::strncmp(argv[I], "--reduction=", 12) == 0) {
      ParseReduction(argv[I] + 12);
      continue;
    }
    if (NumArg(I, "--threads", Threads) || NumArg(I, "--max-pairs", MaxPairs) ||
        NumArg(I, "--max-reachable", MaxReachable))
      continue;
    if (argv[I][0] == '-' && argv[I][1] != '\0') {
      std::fprintf(stderr, "error: unknown option '%s'\n", argv[I]);
      return 2;
    }
    if (Path) {
      std::fprintf(stderr,
                   "error: more than one scenario file ('%s' and '%s')\n",
                   Path, argv[I]);
      return 2;
    }
    Path = argv[I];
  }
  if (!Path) {
    std::fprintf(stderr,
                 "usage: pprun [--trace] [--criteria] [--stats]\n"
                 "             [--threads N] [--reduction MODE]"
                 " [--max-pairs N]"
                 " [--max-reachable N]\n"
                 "             [--commut-db] [--static-prove]"
                 " <scenario-file>\n"
                 "       pprun --example   (print a sample scenario)\n");
    return 2;
  }

  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path);
    return 2;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();

  ScenarioParseResult PR = parseScenario(Buf.str());
  if (!PR.ok()) {
    std::fprintf(stderr, "%s:%zu: error: %s\n", Path, PR.ErrorLine,
                 PR.Error.c_str());
    return 2;
  }

  Scenario &S = *PR.Parsed;
  if (Threads > 0)
    S.ExplorerThreads = Threads;
  if (HaveReduce)
    S.ExplorerReduction = Reduce;
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
      std::fprintf(stderr, "error: --commut-db: %s\n", Why.c_str());
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

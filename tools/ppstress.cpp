//===- tools/ppstress.cpp - Real-concurrency stress runner --------------------===//
//
// Drives N OS worker threads, each running a TM engine instance over a
// shared spec, through the sharded commit arbiter.  Every engine step is
// recorded into per-worker lock-free rings; one checker thread per
// worker shadow-replays that worker's captured windows through the
// single-threaded machine and validates them against the atomic oracle
// (Theorem 5.17) and the Section 6.1 opaque fragment.  Failing windows
// dump `.ppsched` reproducers that --replay re-executes
// deterministically.
//
//   ppstress --engine boosting --spec counter --workers 8
//   ppstress --all-engines --workers 4
//   ppstress --replay failure.ppsched
//
// Options:
//   --engine NAME          TM engine (default boosting)
//   --spec KIND            spec kind (default counter)
//   --workers N            OS worker threads, each with its own checker
//                          thread (default 4, at least 1)
//   --threads-per-worker N logical machine threads per worker (default 2)
//   --rounds N             workload rounds per worker (default 6; at
//                          least 1 unless --duration-ms is given)
//   --duration-ms N        run rounds until the wall clock expires
//                          (overrides --rounds)
//   --think-us N           client think time after each commit (the E13
//                          latency-bound scaling mode)
//   --tx N / --ops N       transactions per thread / ops per transaction
//   --seed N               master seed (default 1)
//   --stripes N            arbiter lock stripes (default 8)
//   --window N             commits per arbiter window (default 16)
//   --inject NAME          fault injection: skip the named Figure 5
//                          criterion in every machine (the checker must
//                          then convict the run)
//   --expect-failure       exit 0 iff the run DID fail (for harnesses
//                          demonstrating fault injection end to end)
//   --dump-dir DIR         where failing windows write .ppsched files
//                          (default: current directory)
//   --no-check             disable window checking (pure throughput)
//   --all-engines          run every engine over the chosen spec
//   --bench                one-line machine-readable summary per run
//                          (drain_sec: checker time after the last
//                          worker finished)
//   --replay FILE          re-execute a .ppsched reproducer through the
//                          differential battery
//
// Numbers are whole decimals that fit their field.  Exit status: 0
// clean, 1 failure detected (inverted by --expect-failure), 2
// usage/build error.  --replay: 0 clean, 1 discrepancy, 2 error.
//
//===----------------------------------------------------------------------===//

#include "fuzz/DiffRunner.h"
#include "sim/Scenario.h"
#include "stress/StressRunner.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

using namespace pushpull;

static int replay(const char *Path) {
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
  BuiltCase Case = fromScenario(*PR.Parsed);
  DiffReport R = DiffRunner().run(Case);
  std::printf("replay: %s (engine %s, %zu threads, %zu picks%s)\n%s", Path,
              Case.Engine.c_str(), Case.Threads.size(),
              Case.ReplayPicks.size(),
              Case.DisabledCriterion.empty()
                  ? ""
                  : (", inject " + Case.DisabledCriterion).c_str(),
              R.toString().c_str());
  if (!R.Built)
    return 2;
  std::printf("%s\n", R.discrepancy() ? "DISCREPANCY" : "OK");
  return R.discrepancy() ? 1 : 0;
}

static int runOne(const StressConfig &C, bool Bench) {
  StressOutcome O = StressRunner(C).run();
  if (Bench) {
    std::printf("BENCH engine=%s spec=%s workers=%u commits=%llu "
                "commits_per_sec=%.1f aborts=%llu windows=%llu "
                "elapsed_sec=%.3f drain_sec=%.4f\n",
                C.Engine.c_str(), C.SpecKind.c_str(), C.Workers,
                static_cast<unsigned long long>(O.Stats.Commits),
                O.Stats.commitsPerSec(),
                static_cast<unsigned long long>(O.Stats.Aborts),
                static_cast<unsigned long long>(O.Stats.Windows),
                O.Stats.ElapsedSec, O.Stats.drainSec());
  } else {
    std::printf("%-14s %s\n", C.Engine.c_str(), O.Stats.toString().c_str());
  }
  for (const std::string &F : O.Failures)
    std::printf("  FAILURE: %s\n", F.c_str());
  for (const std::string &P : O.DumpFiles)
    std::printf("  reproducer: %s\n", P.c_str());
  return O.ok() ? 0 : 1;
}

int main(int argc, char **argv) {
  StressConfig C;
  C.DumpDir = ".";
  bool AllEngines = false, Bench = false, ExpectFailure = false;
  const char *ReplayPath = nullptr;

  // A whole decimal that fits \p Out's type: digits only, no sign, no
  // trailing characters, no overflow.
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
    if (!Ok) {
      std::fprintf(stderr,
                   "error: %s needs a whole number from 0 to %llu, got "
                   "'%s'\n",
                   Flag, static_cast<unsigned long long>(Max), Text);
      std::exit(2);
    }
    Out = static_cast<T>(V);
    return true;
  };
  auto StrArg = [&](int &I, const char *Flag, const char *&Out) {
    if (std::strcmp(argv[I], Flag) != 0)
      return false;
    if (I + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs an argument\n", Flag);
      std::exit(2);
    }
    Out = argv[++I];
    return true;
  };

  for (int I = 1; I < argc; ++I) {
    const char *S = nullptr;
    if (StrArg(I, "--replay", S)) {
      ReplayPath = S;
      continue;
    }
    if (StrArg(I, "--engine", S)) {
      C.Engine = S;
      continue;
    }
    if (StrArg(I, "--spec", S)) {
      C.SpecKind = S;
      continue;
    }
    if (StrArg(I, "--inject", S)) {
      C.DisabledCriterion = S;
      continue;
    }
    if (StrArg(I, "--dump-dir", S)) {
      C.DumpDir = S;
      continue;
    }
    if (NumArg(I, "--workers", C.Workers))
      continue;
    if (NumArg(I, "--threads-per-worker", C.ThreadsPerWorker))
      continue;
    if (NumArg(I, "--rounds", C.Rounds))
      continue;
    if (NumArg(I, "--duration-ms", C.DurationMs))
      continue;
    if (NumArg(I, "--think-us", C.ThinkUs))
      continue;
    if (NumArg(I, "--tx", C.TxPerThread))
      continue;
    if (NumArg(I, "--ops", C.OpsPerTx))
      continue;
    if (NumArg(I, "--seed", C.Seed))
      continue;
    if (NumArg(I, "--stripes", C.Stripes))
      continue;
    if (NumArg(I, "--window", C.WindowCommits))
      continue;
    if (std::strcmp(argv[I], "--no-check") == 0) {
      C.CheckWindows = false;
      continue;
    }
    if (std::strcmp(argv[I], "--all-engines") == 0) {
      AllEngines = true;
      continue;
    }
    if (std::strcmp(argv[I], "--bench") == 0) {
      Bench = true;
      continue;
    }
    if (std::strcmp(argv[I], "--expect-failure") == 0) {
      ExpectFailure = true;
      continue;
    }
    std::fprintf(
        stderr,
        "usage: ppstress [--engine NAME] [--spec KIND] [--workers N]\n"
        "                [--threads-per-worker N] [--rounds N]\n"
        "                [--duration-ms N] [--think-us N] [--tx N] [--ops N]\n"
        "                [--seed N] [--stripes N] [--window N]\n"
        "                [--inject NAME] [--expect-failure] [--dump-dir D]\n"
        "                [--no-check] [--all-engines] [--bench]\n"
        "       ppstress --replay <file.ppsched>\n");
    return 2;
  }

  if (ReplayPath)
    return replay(ReplayPath);
  if (C.Workers == 0) {
    std::fprintf(stderr, "error: --workers must be at least 1\n");
    return 2;
  }
  if (C.Rounds == 0 && C.DurationMs == 0) {
    std::fprintf(stderr,
                 "error: --rounds must be at least 1 unless --duration-ms "
                 "is given\n");
    return 2;
  }

  int Rc = 0;
  if (AllEngines) {
    for (const std::string &E : allEngineNames()) {
      StressConfig EC = C;
      EC.Engine = E;
      Rc |= runOne(EC, Bench);
    }
  } else {
    Rc = runOne(C, Bench);
  }
  if (ExpectFailure)
    Rc = Rc ? 0 : 1;
  return Rc;
}

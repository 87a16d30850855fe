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
//                          (default: current directory; '' writes
//                          none)
//   --no-check             disable window checking (pure throughput)
//   --all-engines          run every engine over the chosen spec
//   --bench                one-line machine-readable summary per run
//                          (drain_sec: checker time after the last
//                          worker finished)
//   --replay FILE          re-execute a .ppsched reproducer through the
//                          differential battery
//
// Every valued option also takes the --name=VALUE form; numbers are
// whole decimals that fit their field, and names must be known engines,
// spec kinds and criteria.  Exit status: 0 clean, 1 failure detected
// (inverted by --expect-failure), 2 usage/build error.  --replay: 0
// clean, 1 discrepancy, 2 error.
//
//===----------------------------------------------------------------------===//

#include "Cli.h"
#include "analysis/Obligations.h"
#include "fuzz/DiffRunner.h"
#include "sim/Scenario.h"
#include "stress/StressRunner.h"

#include <cstdio>

using namespace pushpull;

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
  bool AllEngines = false, Bench = false, ExpectFailure = false,
       NoCheck = false;
  std::string ReplayPath;
  cli::OptionTable Opts(
      "ppstress", "ppstress [options]\n"
                  "       ppstress --replay <file.ppsched>");
  Opts.text("--engine", "NAME", C.Engine, "TM engine (default boosting)",
            allEngineNames())
      .text("--spec", "KIND", C.SpecKind, "spec kind (default counter)",
            allSpecKinds())
      .number("--workers", C.Workers, 0, "OS worker threads (default 4)")
      .number("--threads-per-worker", C.ThreadsPerWorker, 0,
              "logical machine threads per worker (default 2)")
      .number("--rounds", C.Rounds, 0, "workload rounds per worker")
      .number("--duration-ms", C.DurationMs, 0,
              "run rounds until the wall clock expires")
      .number("--think-us", C.ThinkUs, 0, "client think time per commit")
      .number("--tx", C.TxPerThread, 0, "transactions per thread")
      .number("--ops", C.OpsPerTx, 0, "operations per transaction")
      .number("--seed", C.Seed, 0, "master seed (default 1)")
      .number("--stripes", C.Stripes, 0, "arbiter lock stripes (default 8)")
      .number("--window", C.WindowCommits, 0, "commits per arbiter window")
      .text("--inject", "NAME", C.DisabledCriterion,
            "skip the named Figure 5 criterion", injectableCriteria())
      .flag("--expect-failure", ExpectFailure, "exit 0 iff the run failed")
      .dir("--dump-dir", C.DumpDir, "where reproducers go ('' for none)")
      .flag("--no-check", NoCheck, "disable window checking")
      .flag("--all-engines", AllEngines, "run every engine")
      .flag("--bench", Bench, "one-line machine-readable summary")
      .text("--replay", "FILE", ReplayPath, "re-execute a reproducer");
  Opts.parse(argc, argv);
  C.CheckWindows = !NoCheck;

  if (!ReplayPath.empty())
    return cli::replay(ReplayPath, DiffConfig());
  if (C.Workers == 0)
    Opts.fail("--workers must be at least 1");
  if (C.Rounds == 0 && C.DurationMs == 0)
    Opts.fail("--rounds must be at least 1 unless --duration-ms is given");

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

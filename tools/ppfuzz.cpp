//===- tools/ppfuzz.cpp - Differential fuzzer ---------------------------------===//
//
// Differential fuzzing of the TM engines against the PUSH/PULL model.
// Each generated case runs one engine over a random program and is
// cross-checked three ways: atomic-oracle replay (Theorem 5.17),
// opaque-fragment classification (Section 6.1), and the Section 5.3
// invariants after every rule firing.  Discrepancies are delta-debugged
// to a 1-minimal reproducer written as a replayable scenario file.
//
//   ppfuzz --seed 1 --runs 500                    run a campaign
//   ppfuzz --replay scenarios/regress/foo.pp      re-run one reproducer
//
// Options:
//   --seed N             campaign seed (default 1)
//   --runs N             cases to run (default 500)
//   --max-seconds S      wall-clock budget (default unlimited)
//   --engines a,b,...    restrict to these engines (default: all ten)
//   --specs a,b,...      restrict to these spec kinds (default: all six
//                        primitives plus "composite" two-part mixes)
//   --mutant-pct N       share of runs mutating a past case, 0 to 100
//                        (default 30)
//   --repro-dir DIR      where reproducers go (default scenarios/regress;
//                        '' writes none)
//   --no-shrink          report discrepancies unshrunk
//   --disable-criterion "PUSH criterion (ii)"
//                        fault injection: skip the named Figure 5
//                        criterion (demonstrates the harness catches and
//                        minimizes a planted bug)
//   --quiet              suppress per-run progress lines
//
// Every valued option also takes the --name=VALUE form.  Exit status 0
// iff the campaign found no discrepancy, built every case, and every
// engine exercised its whole expected rule set; 1 otherwise; 2 on a usage
// or input error (an unknown option, name or criterion, or a number that
// is not a whole decimal in range).  --replay: 0 clean, 1 discrepancy, 2
// error.
//
//===----------------------------------------------------------------------===//

#include "Cli.h"
#include "analysis/Obligations.h"
#include "fuzz/Campaign.h"

#include <chrono>
#include <cstdio>

using namespace pushpull;

int main(int argc, char **argv) {
  CampaignConfig C;
  C.ReproDir = "scenarios/regress";
  bool NoShrink = false, Quiet = false;
  uint64_t MaxSeconds = 0;
  std::string ReplayPath;
  std::vector<std::string> SpecKinds = allSpecKinds();
  SpecKinds.push_back("composite");
  cli::OptionTable Opts("ppfuzz", "ppfuzz [options]\n"
                                  "       ppfuzz --replay <scenario-file>");
  Opts.number("--seed", C.Gen.Seed, 0, "campaign seed (default 1)")
      .number("--runs", C.Runs, 0, "cases to run (default 500)")
      .number("--max-seconds", MaxSeconds, 0,
              "wall-clock budget (default unlimited)")
      .list("--engines", C.Gen.Engines, "restrict to these engines",
            allEngineNames())
      .list("--specs", C.Gen.SpecKinds, "restrict to these spec kinds",
            SpecKinds)
      .number("--mutant-pct", C.MutantPct, 0,
              "share of runs mutating a past case (default 30)", 100)
      .dir("--repro-dir", C.ReproDir, "where reproducers go ('' for none)")
      .flag("--no-shrink", NoShrink, "report discrepancies unshrunk")
      .text("--disable-criterion", "NAME", C.Diff.DisabledCriterion,
            "skip the named Figure 5 criterion", injectableCriteria())
      .flag("--quiet", Quiet, "suppress per-run progress lines")
      .text("--replay", "FILE", ReplayPath, "re-run one reproducer");
  Opts.parse(argc, argv);
  C.MaxSeconds = static_cast<double>(MaxSeconds);
  C.ShrinkFailures = !NoShrink;
  C.Verbose = !Quiet;

  if (!ReplayPath.empty())
    return cli::replay(ReplayPath, C.Diff);

  auto T0 = std::chrono::steady_clock::now();
  CampaignReport R = Campaign(C).run();
  double Secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
                    .count();
  std::printf("%s", R.toString().c_str());
  std::printf("throughput: %.1f execs/s (%llu runs in %.2fs)\n",
              Secs > 0 ? static_cast<double>(R.RunsDone) / Secs : 0.0,
              static_cast<unsigned long long>(R.RunsDone), Secs);
  return R.ok() ? 0 : 1;
}

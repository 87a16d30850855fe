//===- stress/StressRunner.h - Real-concurrency stress runtime --*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ppstress runtime: N OS worker threads, each driving its own TM
/// engine over its own PUSH/PULL machine (ThreadsPerWorker logical
/// threads of seeded workload), all over one shared spec, through one
/// sharded CommitArbiter that assigns every commit a global sequence
/// number and groups commits into epoch windows.
///
/// Work is organized in *rounds*: a worker repeatedly regenerates a
/// fresh machine + engine + workload from (Seed, worker, round) and runs
/// it to quiescence, so the recorded history is deterministic per
/// (worker, round) and the checker can rebuild the identical
/// configuration from the same three numbers.  Every engine step is
/// recorded into the worker's SPSC RingTrace; each worker has its own
/// checker thread, which drains that worker's ring, shadow-replays each
/// of its rounds through a clean machine (WindowChecker), and adjudicates
/// each closed window against the atomic oracle.  After the join, run()
/// merges the checkers' verdicts in worker order.  Failures dump
/// `.ppsched` reproducers.
///
/// Concurrency invariants, for the TSan runs that gate this subsystem:
///  * each live machine (and engine, and MoverChecker) is confined to
///    its worker thread; each shadow machine to its worker's checker;
///  * the shared spec's state table is internally synchronized, and is
///    the only semantic structure two threads ever touch concurrently;
///  * a worker and its checker communicate exclusively through their
///    SPSC ring and done flag; workers share only the arbiter's
///    atomics/stripe locks.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_STRESS_STRESSRUNNER_H
#define PUSHPULL_STRESS_STRESSRUNNER_H

#include "sim/Stats.h"
#include "stress/WindowChecker.h"

#include <map>
#include <string>
#include <vector>

namespace pushpull {

/// Stress-run knobs.
struct StressConfig {
  /// Symbolic spec descriptor; kinds as in scenarios ("register",
  /// "counter", "set", "map", "queue", "bank").  Domains default small so
  /// the oracle stays exact.
  std::string SpecKind = "counter";
  std::map<std::string, std::string> SpecOpts;
  /// Engine name and options.  A per-round "seed" option is derived and
  /// appended automatically.
  std::string Engine = "boosting";
  std::map<std::string, std::string> EngineOpts;
  /// OS worker threads (each with its own checker thread when windows are
  /// checked), and logical machine threads per worker (>= 2, so
  /// intra-worker interleaving exists and criterion faults can bite).
  unsigned Workers = 4;
  unsigned ThreadsPerWorker = 2;
  /// Workload shape per round.
  unsigned TxPerThread = 3;
  unsigned OpsPerTx = 3;
  unsigned KeyRange = 3;
  unsigned ReadPct = 50;
  unsigned ZipfTheta = 0;
  /// Master seed; everything else derives from (Seed, worker, round).
  uint64_t Seed = 1;
  /// Rounds per worker (ignored when DurationMs > 0: then workers run
  /// rounds until the wall clock expires).
  unsigned Rounds = 6;
  uint64_t DurationMs = 0;
  /// Client think time after each commit, in microseconds.  Models
  /// latency-bound clients: throughput then scales with workers even on
  /// a single core (the E13 scaling mode).
  unsigned ThinkUs = 0;
  /// Arbiter shape.
  unsigned Stripes = 8;
  uint64_t WindowCommits = 16;
  /// Fault injection forwarded to every live and shadow machine.
  std::string DisabledCriterion;
  /// Validate windows via shadow replay + oracle (off = pure-throughput
  /// benchmarking).
  bool CheckWindows = true;
  /// Where failing windows dump `.ppsched` reproducers ("" = don't
  /// write files; the text still lands in StressOutcome::Dumps).
  std::string DumpDir;
  /// At most this many reproducers are dumped per run.
  unsigned MaxDumps = 4;
  /// Livelock guard per worker round.
  uint64_t MaxStepsPerRound = 200000;
  /// Ring capacity (power of two) per worker.
  size_t RingCapacity = 4096;
};

/// Everything one stress run produced.
struct StressOutcome {
  StressStats Stats;
  /// One line per detected failure (divergence, oracle No, fragment
  /// exit, arbiter order violation), in worker order.
  std::vector<std::string> Failures;
  /// Rendered `.ppsched` reproducers for failed windows (the first
  /// MaxDumps in worker order), and the paths they were written to when
  /// DumpDir is set.
  std::vector<std::string> Dumps;
  std::vector<std::string> DumpFiles;
  bool ok() const { return Failures.empty(); }
};

/// Rebuild the deterministic configuration of one (worker, round):
/// engine seed, workload programs, spec — the scenario the live worker
/// and the checker's shadow are both built from (EngineRun).  Exposed for
/// tests.
WindowCheckConfig buildRoundConfig(const StressConfig &C,
                                   std::shared_ptr<const SequentialSpec> Spec,
                                   unsigned Worker, uint32_t Round,
                                   std::string &Error);

/// Runs one stress configuration: spawns the workers and one checker per
/// worker, joins them, and merges their results in worker order.
class StressRunner {
public:
  explicit StressRunner(StressConfig Config) : Config(std::move(Config)) {}

  StressOutcome run();

private:
  StressConfig Config;
};

} // namespace pushpull

#endif // PUSHPULL_STRESS_STRESSRUNNER_H

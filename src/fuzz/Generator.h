//===- fuzz/Generator.h - Differential fuzz-case generation -----*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded random generation of differential test cases.  A FuzzCase is a
/// complete experiment in *symbolic* form — spec descriptors, engine name
/// and options, schedule, and per-thread transaction programs — so every
/// case serializes to a replayable `.pp` scenario file (the reproducer
/// format written by the shrinker and accepted by `ppfuzz --replay` and
/// `pprun`).
///
/// Generation reuses the sim/Workload transaction mixes (the Section 6
/// experiment workloads) over deliberately tiny domains: the atomic oracle
/// of check/Serializability enumerates serial executions, so cases stay
/// small enough that every run is cross-checked exactly.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_FUZZ_GENERATOR_H
#define PUSHPULL_FUZZ_GENERATOR_H

#include "lang/Ast.h"
#include "sim/Scenario.h"
#include "support/Rng.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pushpull {

class SequentialSpec;

/// A complete generated test case.
struct FuzzCase {
  /// One part, or several composing into a CompositeSpec.  Kept symbolic
  /// so cases serialize and so the shrinker can shrink domains.
  std::vector<SpecDesc> Specs;
  std::string Engine = "optimistic";
  std::map<std::string, std::string> EngineOpts;
  SchedulePolicy Policy = SchedulePolicy::RandomUniform;
  uint64_t ScheduleSeed = 1;
  uint64_t MaxSteps = 30000;
  unsigned ChangePoints = 3;
  /// Per-thread transaction sequences (each element a Tx node).
  std::vector<std::vector<CodePtr>> Threads;

  /// Method calls across all threads (the shrinker's size metric).
  size_t totalOps() const;
  size_t totalTxs() const;

  /// The case as a scenario with the standard check battery
  /// (serializability, opacity, invariants), its spec not yet built.
  Scenario toScenario() const;

  /// Render as a pprun/ppfuzz-replayable scenario file: a header comment
  /// and printScenario(toScenario()).
  std::string toScenarioText() const;

  /// Build the composed SequentialSpec from the descriptors (composeSpec).
  /// Returns nullptr and sets \p Error on a bad descriptor.
  std::shared_ptr<const SequentialSpec> buildSpec(std::string &Error) const;
};

/// Generation knobs.
struct GeneratorConfig {
  uint64_t Seed = 1;
  /// Threads per case are drawn from [2, MaxThreads].
  unsigned MaxThreads = 3;
  unsigned MaxTxPerThread = 2;
  unsigned MaxOpsPerTx = 3;
  /// Engines cycled round-robin by case index so campaigns cover all of
  /// them deterministically.  Empty = allEngineNames().
  std::vector<std::string> Engines;
  /// Spec kinds cycled likewise.  Empty = allSpecKinds() + "composite"
  /// (a two-part mix, the Section 7 configuration).
  std::vector<std::string> SpecKinds;
};

/// Seeded random FuzzCase generator over all specs and engines.
class Generator {
public:
  explicit Generator(GeneratorConfig Config);

  /// The next case.  Engine and spec kind cycle deterministically with
  /// the case index; programs, seeds and knobs come from the stream.
  FuzzCase next();

  uint64_t generated() const { return Count; }

  const GeneratorConfig &config() const { return Config; }

private:
  /// Random spec descriptor (small domains) for \p Kind.
  SpecDesc makeSpecDesc(const std::string &Kind, const std::string &Name);

  /// Programs for one part via the sim/Workload mixes.
  std::vector<std::vector<CodePtr>> makePrograms(const SpecDesc &Desc,
                                                 unsigned Threads);

  GeneratorConfig Config;
  Rng R;
  uint64_t Count = 0;
};

} // namespace pushpull

#endif // PUSHPULL_FUZZ_GENERATOR_H

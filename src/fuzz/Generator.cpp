//===- fuzz/Generator.cpp - Differential fuzz-case generation ---------------===//

#include "fuzz/Generator.h"

#include "sim/Workload.h"

#include <algorithm>
#include <functional>

using namespace pushpull;

size_t FuzzCase::totalOps() const {
  size_t N = 0;
  // Count Call nodes structurally (mutated bodies may contain choices).
  std::function<void(const CodePtr &)> Walk = [&](const CodePtr &C) {
    switch (C->kind()) {
    case CodeKind::Call:
      ++N;
      return;
    case CodeKind::Seq:
    case CodeKind::Choice:
      Walk(C->lhs());
      Walk(C->rhs());
      return;
    case CodeKind::Loop:
    case CodeKind::Tx:
      Walk(C->body());
      return;
    case CodeKind::Skip:
      return;
    }
  };
  for (const auto &Txs : Threads)
    for (const CodePtr &T : Txs)
      Walk(T);
  return N;
}

size_t FuzzCase::totalTxs() const {
  size_t N = 0;
  for (const auto &Txs : Threads)
    N += Txs.size();
  return N;
}

Scenario FuzzCase::toScenario() const {
  Scenario S;
  S.Specs = Specs;
  S.Engine = Engine;
  S.EngineOpts = EngineOpts;
  S.Policy = Policy;
  S.ScheduleSeed = ScheduleSeed;
  S.MaxSteps = MaxSteps;
  S.ChangePoints = ChangePoints;
  S.Threads = Threads;
  // The standard check battery, so reproducers also run under plain pprun.
  S.Checks = {"serializability", "opacity", "invariants"};
  return S;
}

std::string FuzzCase::toScenarioText() const {
  return "# ppfuzz case (replay with: ppfuzz --replay <file>)\n" +
         printScenario(toScenario());
}

std::shared_ptr<const SequentialSpec>
FuzzCase::buildSpec(std::string &Error) const {
  return composeSpec(Specs, Error);
}

Generator::Generator(GeneratorConfig C) : Config(std::move(C)), R(Config.Seed) {
  if (Config.Engines.empty())
    Config.Engines = allEngineNames();
  if (Config.SpecKinds.empty()) {
    Config.SpecKinds = allSpecKinds();
    Config.SpecKinds.push_back("composite");
  }
  if (Config.MaxThreads < 2)
    Config.MaxThreads = 2;
}

SpecDesc Generator::makeSpecDesc(const std::string &Kind,
                                 const std::string &Name) {
  SpecDesc D;
  D.Kind = Kind;
  D.Opts["name"] = Name;
  // Domains stay tiny: every run is cross-checked against the exact
  // atomic oracle, whose search is exponential in domain and program size.
  if (Kind == "register") {
    D.Opts["regs"] = std::to_string(R.range(1, 3));
    D.Opts["vals"] = std::to_string(R.range(2, 3));
  } else if (Kind == "counter") {
    D.Opts["counters"] = std::to_string(R.range(1, 2));
    D.Opts["mod"] = std::to_string(R.range(4, 8));
  } else if (Kind == "set") {
    D.Opts["keys"] = std::to_string(R.range(2, 4));
  } else if (Kind == "map") {
    D.Opts["keys"] = std::to_string(R.range(2, 4));
    D.Opts["vals"] = std::to_string(R.range(2, 3));
  } else if (Kind == "queue") {
    D.Opts["cap"] = std::to_string(R.range(2, 3));
    D.Opts["vals"] = "2";
  } else if (Kind == "bank") {
    D.Opts["accounts"] = "2";
    D.Opts["cap"] = std::to_string(R.range(3, 4));
    D.Opts["initial"] = std::to_string(R.range(1, 2));
  }
  // An unknown kind keeps just its name; building the case rejects it.
  return D;
}

std::vector<std::vector<CodePtr>>
Generator::makePrograms(const SpecDesc &Desc, unsigned Threads) {
  std::string Name, Error;
  auto Part = makeSpecPart(Desc.Kind, Desc.Opts, Name, Error);

  WorkloadConfig WC;
  WC.Threads = Threads;
  WC.TxPerThread = static_cast<unsigned>(R.range(1, Config.MaxTxPerThread));
  WC.OpsPerTx = static_cast<unsigned>(R.range(1, Config.MaxOpsPerTx));
  WC.KeyRange = static_cast<unsigned>(R.range(1, 3));
  WC.ZipfTheta = R.chance(1, 2) ? 100 : 0; // Hot-key contention half the time.
  WC.ReadPct = static_cast<unsigned>(R.range(20, 80));
  WC.Seed = R.next();

  // An unknown kind has no spec: empty programs, so the case fails to
  // build on its descriptor instead of indexing past them.
  ThreadPrograms P = genWorkload(Part.get(), WC);
  P.resize(Threads);
  return P;
}

FuzzCase Generator::next() {
  // Engine and spec kind cycle with the case index: a campaign of
  // Engines*Kinds runs visits every (engine, kind) pair exactly once.
  const std::string &Engine = Config.Engines[Count % Config.Engines.size()];
  const std::string &Kind =
      Config.SpecKinds[(Count / Config.Engines.size()) %
                       Config.SpecKinds.size()];
  ++Count;

  FuzzCase Case;
  Case.Engine = Engine;
  unsigned Threads = static_cast<unsigned>(R.range(2, Config.MaxThreads));

  if (Kind == "composite") {
    // A two-part mix of distinct primitive kinds (the Section 7 shape).
    const std::vector<std::string> &Prim = allSpecKinds();
    size_t A = R.below(Prim.size());
    size_t B = (A + 1 + R.below(Prim.size() - 1)) % Prim.size();
    Case.Specs.push_back(makeSpecDesc(Prim[A], Prim[A]));
    Case.Specs.push_back(makeSpecDesc(Prim[B], Prim[B]));
  } else {
    Case.Specs.push_back(makeSpecDesc(Kind, Kind));
  }

  // Per-part programs via the workload mixes, merged per thread so
  // composite transactions from both parts interleave in program order.
  Case.Threads.assign(Threads, {});
  for (const SpecDesc &D : Case.Specs) {
    std::vector<std::vector<CodePtr>> P = makePrograms(D, Threads);
    for (unsigned T = 0; T < Threads; ++T)
      for (CodePtr &Tx : P[T])
        Case.Threads[T].push_back(std::move(Tx));
  }

  // Engine options: a seed always; algorithm-specific knobs sometimes.
  Case.EngineOpts["seed"] = std::to_string(R.next() % 100000);
  if (Engine == "checkpoint")
    Case.EngineOpts["every"] = std::to_string(R.range(1, 3));
  if (Engine == "boosting" || Engine == "hybrid") {
    // The hybrid engine takes no keylocks key, but the draws stay so the
    // generator's stream position after a hybrid case does not change.
    if (R.chance(1, 2)) {
      const char *KeyLocks = R.chance(1, 2) ? "1" : "0";
      if (Engine == "boosting")
        Case.EngineOpts["keylocks"] = KeyLocks;
    }
  }
  if (Engine == "dependent")
    Case.EngineOpts["abortpct"] = std::to_string(R.range(0, 25));
  if (Engine == "irrevocable")
    Case.EngineOpts["irrevocable"] =
        std::to_string(R.below(Threads));
  if (Engine == "hybrid") {
    Case.EngineOpts["conflictpct"] = std::to_string(R.range(0, 25));
    if (R.chance(1, 2))
      Case.EngineOpts["htm"] = Case.Specs[0].Opts.at("name");
  }

  switch (R.below(3)) {
  case 0:
    Case.Policy = SchedulePolicy::RandomUniform;
    break;
  case 1:
    Case.Policy = SchedulePolicy::RoundRobin;
    break;
  default:
    Case.Policy = SchedulePolicy::PriorityChangePoints;
    break;
  }
  Case.ScheduleSeed = R.next() % 1000000;
  Case.MaxSteps = 30000;
  Case.ChangePoints = static_cast<unsigned>(R.range(2, 4));
  return Case;
}

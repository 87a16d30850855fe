//===- sim/Scenario.cpp - Declarative experiment scenarios ------------------===//

#include "sim/Scenario.h"

#include "check/Opacity.h"
#include "check/Serializability.h"
#include "core/Invariants.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "sim/Explorer.h"
#include "sim/Scheduler.h"
#include "spec/BankSpec.h"
#include "spec/CompositeSpec.h"
#include "spec/CounterSpec.h"
#include "spec/MapSpec.h"
#include "spec/QueueSpec.h"
#include "spec/RegisterSpec.h"
#include "spec/SetSpec.h"
#include "support/Str.h"
#include "tm/BoostingTM.h"
#include "tm/CheckpointTM.h"
#include "tm/DependentTM.h"
#include "tm/EarlyReleaseTM.h"
#include "tm/HtmTM.h"
#include "tm/HybridHtmBoostingTM.h"
#include "tm/IrrevocableTM.h"
#include "tm/OptimisticTM.h"
#include "tm/PessimisticCommitTM.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

using namespace pushpull;

namespace {

/// Tokenize a directive line into words.
std::vector<std::string> words(const std::string &Line) {
  std::vector<std::string> Out;
  std::istringstream In(Line);
  std::string W;
  while (In >> W)
    Out.push_back(W);
  return Out;
}

/// Parse trailing key=value options into a map.
std::map<std::string, std::string>
options(const std::vector<std::string> &Ws, size_t From) {
  std::map<std::string, std::string> Out;
  for (size_t I = From; I < Ws.size(); ++I) {
    size_t Eq = Ws[I].find('=');
    if (Eq == std::string::npos)
      Out[Ws[I]] = "";
    else
      Out[Ws[I].substr(0, Eq)] = Ws[I].substr(Eq + 1);
  }
  return Out;
}

using Options = std::map<std::string, std::string>;

constexpr uint64_t U32Max = std::numeric_limits<uint32_t>::max();
constexpr uint64_t U64Max = std::numeric_limits<uint64_t>::max();

/// One numeric key=value option: its key, default and inclusive range.
/// A thread key names a thread: parseScenario also bounds it by the
/// file's thread count.
struct NumKey {
  const char *Key = nullptr;
  uint64_t Default = 0, Min = 0, Max = 0;
  bool Thread = false;
};

/// The key=value options of one spec kind, engine or schedule line: up
/// to three numbers, read into slots in this order, and at most one
/// free-text key.  Tables of these are static, so reading a directive's
/// options allocates nothing unless it fails.
struct KeySet {
  const char *Name;
  NumKey Nums[3];
  const char *Text = nullptr;
};

/// The numbers readKeys read, in the order of KeySet::Nums.
using Slots = uint64_t[3];
using SpecPtr = std::shared_ptr<const SequentialSpec>;
using EnginePtr = std::unique_ptr<TMEngine>;

/// A spec kind: its keys, and how it is built from their values.
struct SpecKind {
  KeySet Keys;
  SpecPtr (*Make)(const std::string &Name, const Slots &V,
                  std::string &Error);
};

/// An engine: its keys, and how it is built from their values and the
/// text key's value (null when absent).
struct EngineKind {
  KeySet Keys;
  EnginePtr (*Make)(PushPullMachine &M, const Slots &V,
                    const std::string *Text);
};

unsigned u32(uint64_t V) { return static_cast<unsigned>(V); }

constexpr NumKey SeedKey{"seed", 1, 0, U64Max};

constexpr SpecKind SpecKinds[] = {
    {{"register", {{"regs", 4, 1, MaxSpecSize}, {"vals", 4, 1, MaxSpecSize}},
      "name"},
     [](const std::string &Name, const Slots &V, std::string &) -> SpecPtr {
       return std::make_shared<RegisterSpec>(Name, u32(V[0]), u32(V[1]));
     }},
    {{"counter",
      {{"counters", 2, 1, MaxSpecSize}, {"mod", 8, 1, MaxSpecSize}},
      "name"},
     [](const std::string &Name, const Slots &V, std::string &) -> SpecPtr {
       return std::make_shared<CounterSpec>(Name, u32(V[0]), u32(V[1]));
     }},
    {{"set", {{"keys", 8, 1, MaxSpecSize}}, "name"},
     [](const std::string &Name, const Slots &V, std::string &) -> SpecPtr {
       return std::make_shared<SetSpec>(Name, u32(V[0]));
     }},
    {{"map", {{"keys", 8, 1, MaxSpecSize}, {"vals", 4, 1, MaxSpecSize}},
      "name"},
     [](const std::string &Name, const Slots &V, std::string &) -> SpecPtr {
       return std::make_shared<MapSpec>(Name, u32(V[0]), u32(V[1]));
     }},
    {{"queue", {{"cap", 4, 1, MaxSpecSize}, {"vals", 2, 1, MaxSpecSize}},
      "name"},
     [](const std::string &Name, const Slots &V, std::string &) -> SpecPtr {
       return std::make_shared<QueueSpec>(Name, u32(V[0]), u32(V[1]));
     }},
    {{"bank",
      {{"accounts", 2, 1, MaxSpecSize},
       {"cap", 4, 1, MaxSpecSize},
       {"initial", 2, 0, MaxSpecSize}},
      "name"},
     [](const std::string &Name, const Slots &V,
        std::string &Error) -> SpecPtr {
       if (V[2] > V[1]) {
         Error = wholeNumberError("initial", 0, V[1], std::to_string(V[2])) +
                 " (at most the cap)";
         return nullptr;
       }
       return std::make_shared<BankSpec>(Name, u32(V[0]), u32(V[1]),
                                         u32(V[2]));
     }},
};

constexpr EngineKind EngineKinds[] = {
    {{"optimistic", {SeedKey}},
     [](PushPullMachine &M, const Slots &V, const std::string *) -> EnginePtr {
       return std::make_unique<OptimisticTM>(M, OptimisticConfig{V[0]});
     }},
    {{"checkpoint", {SeedKey, {"every", 2, 1, U32Max}}},
     [](PushPullMachine &M, const Slots &V, const std::string *) -> EnginePtr {
       CheckpointConfig C;
       C.Seed = V[0];
       C.CheckpointEvery = u32(V[1]);
       return std::make_unique<CheckpointTM>(M, C);
     }},
    {{"boosting", {SeedKey, {"deadlock", 8, 0, U32Max}, {"keylocks", 1, 0, 1}}},
     [](PushPullMachine &M, const Slots &V, const std::string *) -> EnginePtr {
       BoostingConfig C;
       C.Seed = V[0];
       C.DeadlockThreshold = u32(V[1]);
       C.KeyGranularLocks = V[2] != 0;
       return std::make_unique<BoostingTM>(M, C);
     }},
    {{"pessimistic", {SeedKey}},
     [](PushPullMachine &M, const Slots &V, const std::string *) -> EnginePtr {
       PessimisticConfig C;
       C.Seed = V[0];
       return std::make_unique<PessimisticCommitTM>(M, std::move(C));
     }},
    {{"irrevocable", {SeedKey, {"irrevocable", 0, 0, U32Max, true}}},
     [](PushPullMachine &M, const Slots &V, const std::string *) -> EnginePtr {
       IrrevocableConfig C;
       C.Seed = V[0];
       C.IrrevocableThread = static_cast<TxId>(V[1]);
       return std::make_unique<IrrevocableTM>(M, C);
     }},
    {{"dependent", {SeedKey, {"abortpct", 0, 0, 100}}},
     [](PushPullMachine &M, const Slots &V, const std::string *) -> EnginePtr {
       DependentConfig C;
       C.Seed = V[0];
       C.AbortChancePct = u32(V[1]);
       return std::make_unique<DependentTM>(M, C);
     }},
    {{"early-release", {SeedKey}},
     [](PushPullMachine &M, const Slots &V, const std::string *) -> EnginePtr {
       return std::make_unique<EarlyReleaseTM>(M, EarlyReleaseConfig{V[0]});
     }},
    {{"htm", {SeedKey}},
     [](PushPullMachine &M, const Slots &V, const std::string *) -> EnginePtr {
       HtmConfig C;
       C.Seed = V[0];
       return std::make_unique<HtmTM>(M, C);
     }},
    {{"htm-word", {SeedKey}},
     [](PushPullMachine &M, const Slots &V, const std::string *) -> EnginePtr {
       HtmConfig C;
       C.Seed = V[0];
       C.WordGranularity = true;
       return std::make_unique<HtmTM>(M, C);
     }},
    {{"hybrid", {SeedKey, {"conflictpct", 0, 0, 100}}, "htm"},
     [](PushPullMachine &M, const Slots &V,
        const std::string *Htm) -> EnginePtr {
       HybridConfig C;
       C.Seed = V[0];
       C.ConflictChancePct = u32(V[1]);
       if (Htm)
         for (const std::string &Obj : splitOn(*Htm, ','))
           if (!Obj.empty())
             C.HtmObjects.insert(Obj);
       return std::make_unique<HybridHtmBoostingTM>(M, std::move(C));
     }},
};

/// The schedule policies by name: the parser reads and printScenario
/// writes these.
constexpr std::pair<const char *, SchedulePolicy> PolicyNames[] = {
    {"random", SchedulePolicy::RandomUniform},
    {"roundrobin", SchedulePolicy::RoundRobin},
    {"pct", SchedulePolicy::PriorityChangePoints},
    {"replay", SchedulePolicy::Replay},
};

constexpr NumKey MaxStepsKey{"maxsteps", 200000, 1, U64Max};
constexpr KeySet ScheduleKeys{"schedule",
                              {SeedKey,
                               MaxStepsKey,
                               {"changepoints", 3, 0, MaxChangePoints}}};
constexpr KeySet ReplayKeys{"schedule",
                            {SeedKey, ScheduleKeys.Nums[1],
                             ScheduleKeys.Nums[2]},
                            "picks"};

template <typename Row, size_t N>
const Row *findKind(const Row (&Table)[N], const std::string &Name) {
  for (const Row &K : Table)
    if (Name == K.Keys.Name)
      return &K;
  return nullptr;
}

/// Read \p Opts, the options of `<Directive> <Name>`, against \p Keys:
/// each numeric key into its slot of \p Out (the default when absent),
/// the text key's value into \p Text (null when absent).  Any key \p Keys
/// does not list, or a number that is not whole or out of range, sets
/// \p Error naming the key and what it takes, and returns false.
bool readKeys(const char *Directive, const std::string &Name,
              const KeySet &Keys, const Options &Opts, Slots &Out,
              const std::string *&Text, std::string &Error) {
  for (size_t I = 0; I < 3; ++I)
    Out[I] = Keys.Nums[I].Default;
  Text = nullptr;
  for (const auto &[Key, Value] : Opts) {
    if (Keys.Text && Key == Keys.Text) {
      Text = &Value;
      continue;
    }
    size_t I = 0;
    while (I < 3 && Keys.Nums[I].Key && Key != Keys.Nums[I].Key)
      ++I;
    if (I == 3 || !Keys.Nums[I].Key) {
      std::string Takes = Keys.Nums[0].Key;
      for (const char *K : {Keys.Nums[1].Key, Keys.Nums[2].Key, Keys.Text})
        if (K)
          Takes.append(", ").append(K);
      Error = "unknown key '" + Key + "' on " + Directive + " " + Name +
              " (it takes " + Takes + ")";
      return false;
    }
    const NumKey &K = Keys.Nums[I];
    if (!readWhole(Value, K.Min, K.Max, Out[I])) {
      Error = wholeNumberError(Key, K.Min, K.Max, Value);
      return false;
    }
  }
  return true;
}

void collectTxs(const CodePtr &C, std::vector<CodePtr> &Out, bool &Bad) {
  switch (C->kind()) {
  case CodeKind::Tx:
    Out.push_back(C);
    return;
  case CodeKind::Seq:
    collectTxs(C->lhs(), Out, Bad);
    collectTxs(C->rhs(), Out, Bad);
    return;
  case CodeKind::Skip:
    return;
  default:
    Bad = true;
    return;
  }
}

} // namespace

std::shared_ptr<const SequentialSpec>
pushpull::makeSpecPart(const std::string &Kind, const Options &Opts,
                       std::string &Name, std::string &Error) {
  const SpecKind *K = findKind(SpecKinds, Kind);
  if (!K) {
    Error = "unknown spec kind '" + Kind + "'";
    return nullptr;
  }
  Slots V;
  const std::string *Text;
  if (!readKeys("spec", Kind, K->Keys, Opts, V, Text, Error))
    return nullptr;
  Name = Text ? *Text : Kind;
  return K->Make(Name, V, Error);
}

std::shared_ptr<const SequentialSpec>
pushpull::composeSpec(const std::vector<SpecDesc> &Specs, std::string &Error,
                      size_t *Bad) {
  if (Bad)
    *Bad = Specs.size();
  if (Specs.empty()) {
    Error = "scenario declares no spec";
    return nullptr;
  }
  std::vector<std::pair<std::string, SpecPtr>> Parts;
  for (const SpecDesc &D : Specs) {
    std::string Name;
    SpecPtr Part = makeSpecPart(D.Kind, D.Opts, Name, Error);
    if (Part && std::any_of(Parts.begin(), Parts.end(),
                            [&](const auto &P) { return P.first == Name; })) {
      Error = "duplicate spec name '" + Name + "'";
      Part = nullptr;
    }
    if (!Part) {
      if (Bad)
        *Bad = Parts.size();
      return nullptr;
    }
    Parts.emplace_back(std::move(Name), std::move(Part));
  }
  if (Parts.size() == 1)
    return std::move(Parts[0].second);
  auto Composite = std::make_shared<CompositeSpec>();
  for (auto &[Name, Part] : Parts)
    Composite->add(Name, std::move(Part));
  return Composite;
}

std::unique_ptr<TMEngine>
pushpull::makeEngine(const std::string &Name, const Options &Opts,
                     PushPullMachine &M, std::string &Error) {
  const EngineKind *K = findKind(EngineKinds, Name);
  if (!K) {
    Error = "unknown engine '" + Name + "'";
    return nullptr;
  }
  Slots V;
  const std::string *Text;
  if (!readKeys("engine", Name, K->Keys, Opts, V, Text, Error))
    return nullptr;
  return K->Make(M, V, Text);
}

const EngineSurface *pushpull::engineSurface(const std::string &Name) {
  static const std::vector<EngineSurface> Surfaces = [] {
    std::vector<EngineSurface> Out;
    RegisterSpec Spec("mem", 1, 2);
    MoverChecker Movers(Spec);
    for (const EngineKind &K : EngineKinds) {
      PushPullMachine M(Spec, Movers);
      M.addThread({call("mem", "read", {Value(0)})});
      std::string Error;
      EnginePtr E = makeEngine(K.Keys.Name, {}, M, Error);
      Out.push_back({E->ruleMask(), E->pullsUncommitted()});
    }
    return Out;
  }();
  for (size_t I = 0; I < Surfaces.size(); ++I)
    if (Name == EngineKinds[I].Keys.Name)
      return &Surfaces[I];
  return nullptr;
}

namespace {
template <typename Row, size_t N>
std::vector<std::string> namesOf(const Row (&Table)[N]) {
  std::vector<std::string> Out;
  Out.reserve(N);
  for (const Row &K : Table)
    Out.emplace_back(K.Keys.Name);
  return Out;
}
} // namespace

const std::vector<std::string> &pushpull::allEngineNames() {
  static const std::vector<std::string> Names = namesOf(EngineKinds);
  return Names;
}

const std::vector<std::string> &pushpull::allSpecKinds() {
  static const std::vector<std::string> Kinds = namesOf(SpecKinds);
  return Kinds;
}

std::vector<CodePtr> pushpull::flattenTransactions(const CodePtr &C,
                                                   std::string &Error) {
  std::vector<CodePtr> Out;
  bool Bad = false;
  collectTxs(C, Out, Bad);
  if (Bad) {
    Error = "thread programs must be sequences of tx { ... } blocks "
            "(methods may not occur outside a transaction)";
    return {};
  }
  return Out;
}

ScenarioParseResult pushpull::parseScenario(const std::string &Text) {
  ScenarioParseResult Out;
  auto S = std::make_unique<Scenario>();
  std::vector<size_t> SpecLines;
  size_t EngineLine = 0, PicksLine = 0;
  std::string PicksText;

  auto Fail = [&](size_t LineNo, std::string Msg) {
    Out.Error = std::move(Msg);
    Out.ErrorLine = LineNo;
    Out.Parsed = nullptr;
    return std::move(Out);
  };

  std::vector<std::string> Lines = splitOn(Text, '\n');
  for (size_t N = 0; N < Lines.size(); ++N) {
    std::string Line = Lines[N];
    size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line = Line.substr(0, Hash);
    std::vector<std::string> Ws = words(Line);
    if (Ws.empty())
      continue;
    const std::string &Directive = Ws[0];

    if (Directive == "spec") {
      if (Ws.size() < 2)
        return Fail(N + 1, "spec needs a kind");
      S->Specs.push_back({Ws[1], options(Ws, 2)});
      SpecLines.push_back(N + 1);
      continue;
    }
    if (Directive == "engine") {
      if (Ws.size() < 2)
        return Fail(N + 1, "engine needs a name");
      S->Engine = Ws[1];
      S->EngineOpts = options(Ws, 2);
      EngineLine = N + 1;
      continue;
    }
    if (Directive == "schedule") {
      if (Ws.size() < 2)
        return Fail(N + 1, "schedule needs a policy");
      const auto *Named = std::find_if(
          std::begin(PolicyNames), std::end(PolicyNames),
          [&](const auto &P) { return Ws[1] == P.first; });
      if (Named == std::end(PolicyNames))
        return Fail(N + 1, "unknown schedule policy '" + Ws[1] + "'");
      S->Policy = Named->second;
      Options Opts = options(Ws, 2);
      Slots V;
      const std::string *Picks;
      std::string Error;
      if (!readKeys("schedule", Ws[1],
                    S->Policy == SchedulePolicy::Replay ? ReplayKeys
                                                        : ScheduleKeys,
                    Opts, V, Picks, Error))
        return Fail(N + 1, Error);
      S->ScheduleSeed = V[0];
      S->MaxSteps = V[1];
      S->ChangePoints = static_cast<unsigned>(V[2]);
      // Picks name threads, so they are read once every thread is known.
      PicksLine = 0;
      if (S->Policy == SchedulePolicy::Replay) {
        if (!Picks || Picks->empty())
          return Fail(N + 1, "schedule replay needs picks=t0,t1,...");
        PicksText = *Picks;
        PicksLine = N + 1;
      }
      continue;
    }
    if (Directive == "inject") {
      // Fault injection: the rest of the line is the exact paper-style
      // criterion name to skip, e.g. `inject PUSH criterion (ii)`.
      if (Ws.size() < 2)
        return Fail(N + 1, "inject needs a criterion name");
      size_t At = Line.find("inject");
      std::string Name = Line.substr(At + 6);
      size_t B = Name.find_first_not_of(" \t");
      size_t E = Name.find_last_not_of(" \t\r");
      if (B == std::string::npos)
        return Fail(N + 1, "inject needs a criterion name");
      S->DisabledCriterion = Name.substr(B, E - B + 1);
      continue;
    }
    if (Directive == "thread") {
      std::string Program = Line.substr(Line.find("thread") + 6);
      ParseResult PR = parseCode(Program);
      if (!PR.ok())
        return Fail(N + 1, "program parse error: " + PR.Error);
      std::string Error;
      std::vector<CodePtr> Txs = flattenTransactions(PR.Parsed, Error);
      if (!Error.empty())
        return Fail(N + 1, Error);
      if (Txs.empty())
        return Fail(N + 1, "thread has no transactions");
      S->Threads.push_back(std::move(Txs));
      continue;
    }
    if (Directive == "check") {
      if (Ws.size() < 2)
        return Fail(N + 1, "check needs a name");
      S->Checks.push_back(Ws[1]);
      continue;
    }
    return Fail(N + 1, "unknown directive '" + Directive + "'");
  }

  std::string SpecError;
  size_t Bad;
  S->Spec = composeSpec(S->Specs, SpecError, &Bad);
  if (!S->Spec)
    return Fail(Bad < SpecLines.size() ? SpecLines[Bad] : 0, SpecError);
  if (S->Threads.empty())
    return Fail(0, "scenario declares no threads");
  // A known engine's options are checked now, not first when the engine
  // is built, and a thread key must name a thread of this file; an
  // unknown name is left to the linter and the run.
  if (const EngineKind *K = findKind(EngineKinds, S->Engine)) {
    Slots V;
    const std::string *Text;
    std::string Error;
    if (!readKeys("engine", S->Engine, K->Keys, S->EngineOpts, V, Text,
                  Error))
      return Fail(EngineLine, Error);
    for (size_t I = 0; I < 3; ++I)
      if (K->Keys.Nums[I].Thread && V[I] >= S->Threads.size())
        return Fail(EngineLine,
                    wholeNumberError(K->Keys.Nums[I].Key, 0,
                                     S->Threads.size() - 1,
                                     std::to_string(V[I])));
  }
  if (PicksLine)
    for (const std::string &P : splitOn(PicksText, ',')) {
      uint64_t T;
      if (!readWhole(P, 0, S->Threads.size() - 1, T))
        return Fail(PicksLine, wholeNumberError("picks", 0,
                                                S->Threads.size() - 1, P));
      S->ReplayPicks.push_back(static_cast<uint32_t>(T));
    }
  Out.Parsed = std::move(S);
  return Out;
}

std::string pushpull::printScenario(const Scenario &S) {
  std::string Out;
  auto Opts = [&Out](const Options &O) {
    for (const auto &[K, V] : O)
      Out += " " + K + (V.empty() ? "" : "=" + V);
    Out += "\n";
  };
  for (const SpecDesc &D : S.Specs) {
    Out += "spec " + D.Kind;
    Opts(D.Opts);
  }
  Out += "engine " + S.Engine;
  Opts(S.EngineOpts);
  for (const auto &[Name, Policy] : PolicyNames)
    if (Policy == S.Policy)
      Out += std::string("schedule ") + Name;
  if (S.Policy != SchedulePolicy::Replay) {
    Out += " seed=" + std::to_string(S.ScheduleSeed) +
           " maxsteps=" + std::to_string(S.MaxSteps) +
           " changepoints=" + std::to_string(S.ChangePoints);
  } else {
    if (S.MaxSteps != MaxStepsKey.Default)
      Out += " maxsteps=" + std::to_string(S.MaxSteps);
    Out += " picks=";
    for (size_t I = 0; I < S.ReplayPicks.size(); ++I)
      Out += (I ? "," : "") + std::to_string(S.ReplayPicks[I]);
  }
  Out += "\n";
  if (!S.DisabledCriterion.empty())
    Out += "inject " + S.DisabledCriterion + "\n";
  for (const auto &Txs : S.Threads) {
    Out += "thread ";
    for (size_t I = 0; I < Txs.size(); ++I)
      Out += (I ? "; " : "") + printCode(Txs[I]);
    Out += "\n";
  }
  for (const std::string &Check : S.Checks)
    Out += "check " + Check + "\n";
  return Out;
}

ScenarioParseResult pushpull::readScenarioFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    ScenarioParseResult Out;
    Out.Error = "cannot open '" + Path + "'";
    return Out;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return parseScenario(Buf.str());
}

namespace {
MachineConfig withInject(MachineConfig MC, const Scenario &S) {
  if (MC.DisabledCriterion.empty())
    MC.DisabledCriterion = S.DisabledCriterion;
  return MC;
}
} // namespace

EngineRun::EngineRun(const Scenario &S, MachineConfig MC,
                     const MoverLimits &MoverLim,
                     const PrecongruenceLimits &Pre)
    : Source(S), Movers(*S.Spec, MoverLim, Pre),
      M(*S.Spec, Movers, withInject(std::move(MC), S)) {
  for (const auto &P : S.Threads)
    M.addThread(P);
  Engine = makeEngine(S.Engine, S.EngineOpts, M, Error);
}

RunStats EngineRun::run() {
  SchedulerConfig SC;
  SC.Policy = Source.Policy;
  SC.Seed = Source.ScheduleSeed;
  SC.MaxSteps = Source.MaxSteps;
  SC.ChangePoints = Source.ChangePoints;
  SC.ReplayPicks = Source.ReplayPicks;
  return Scheduler(SC).run(*Engine);
}

ScenarioOutcome pushpull::runScenario(const Scenario &S) {
  ScenarioOutcome Out;
  memstats::Snapshot MemBefore = memstats::read();
  MachineConfig MC;
  MC.RecordAudit = true; // Scenario runs are small; keep the discharge log.
  EngineRun Run(S, std::move(MC));
  if (!Run.engine()) {
    Out.CheckResults.push_back("error: " + Run.error());
    return Out;
  }
  Out.Stats = Run.run();
  PushPullMachine &M = Run.machine();
  MoverChecker &Movers = Run.movers();
  Out.Trace = M.trace().toString();
  Out.Audit = M.auditToString();
  Out.CommittedLog = M.global().toString();
  Out.Ok = Out.Stats.Quiescent;

  for (const std::string &Check : S.Checks) {
    if (Check == "serializability" || Check == "serializability-any") {
      SerializabilityChecker Oracle(*S.Spec, {}, S.Pre);
      SerializabilityVerdict V = Check == "serializability"
                                     ? Oracle.checkCommitOrder(M)
                                     : Oracle.checkAnyOrder(M);
      Out.CheckResults.push_back(Check + ": " + toString(V.Serializable));
      Out.Ok = Out.Ok && V.Serializable == Tri::Yes;
    } else if (Check == "opacity") {
      OpacityReport R = classifyTrace(M.trace());
      Out.CheckResults.push_back(
          "opacity: " + std::string(R.InOpaqueFragment
                                        ? "in the opaque fragment"
                                        : "outside the opaque fragment") +
          " (" + std::to_string(R.UncommittedPulls) + "/" +
          std::to_string(R.TotalPulls) + " uncommitted pulls)");
    } else if (Check == "invariants") {
      bool AllHold = true;
      for (const ThreadState &Th : M.threads()) {
        InvariantReport R = checkAllInvariants(Th, M.global(), Movers);
        if (!R.Holds) {
          AllHold = false;
          Out.CheckResults.push_back("invariants: FAILED " + R.Which +
                                     " — " + R.Detail);
        }
      }
      if (AllHold)
        Out.CheckResults.push_back("invariants: hold");
      Out.Ok = Out.Ok && AllHold;
    } else if (Check == "explore") {
      // Exhaustive interleaving exploration of the scenario's programs —
      // every schedule, not just the one the engine/scheduler produced.
      ExplorerConfig EC;
      EC.Threads = S.ExplorerThreads;
      EC.Reduce = S.ExplorerReduction;
      EC.CommutDB = S.CommutDB;
      EC.SkipOracle = S.SkipOracleReplay;
      Explorer Ex(*S.Spec, Movers, EC);
      ExplorerReport R = Ex.explore(S.Threads);
      std::string Line =
          "explore: " + std::to_string(R.ConfigsVisited) + " configs, " +
          std::to_string(R.TerminalConfigs) + " terminals, " +
          std::to_string(R.NonSerializable) + " non-serializable, " +
          std::to_string(R.InvariantViolations) + " invariant violations";
      if (EC.Reduce != Reduction::None)
        Line += ", reduction=" + toString(EC.Reduce) + " pruned " +
                std::to_string(R.FiringsPruned) + " firings";
      if (R.OracleSkips)
        Line += ", " + std::to_string(R.OracleSkips) + " oracle-skipped";
      if (R.Truncated)
        Line += " (truncated)";
      Out.CheckResults.push_back(std::move(Line));
      Out.Caches.ExplorerFiringsPruned += R.FiringsPruned;
      Out.Caches.ExplorerPersistentCuts += R.PersistentCuts;
      Out.Caches.ExplorerSymmetryHits += R.SymmetryHits;
      Out.Caches.ExplorerReductionRatio = R.reductionRatio();
      Out.Caches.OracleSkips += R.OracleSkips;
      Out.Ok = Out.Ok && R.clean();
    } else {
      Out.CheckResults.push_back("error: unknown check '" + Check + "'");
      Out.Ok = false;
    }
  }

  Out.Caches.Intern = S.Spec->internStats();
  Out.Caches.MoverMemoHits = Movers.memoHits();
  Out.Caches.MoverMemoMisses = Movers.memoMisses();
  Out.Caches.PrecongruencePairs = Movers.precongruence().pairsVisited();
  Out.Caches.ReachableSets = Movers.reachableComputedCount();
  if (S.CommutDB) {
    Out.Caches.CommutTableHits = S.CommutDB->tableHits();
    Out.Caches.CommutTableMisses = S.CommutDB->tableMisses();
    Out.Caches.CertChecks = S.CommutDB->certChecks();
  }
  Out.Caches.Memory = memstats::read().delta(MemBefore);
  return Out;
}

//===- tools/Cli.cpp - The tools' shared command-line front end -----------===//

#include "Cli.h"

#include "fuzz/DiffRunner.h"
#include "sim/Scenario.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace pushpull;
using namespace pushpull::cli;

namespace {

bool allowed(const std::vector<std::string> &Allowed, const std::string &V) {
  return Allowed.empty() ||
         std::find(Allowed.begin(), Allowed.end(), V) != Allowed.end();
}

} // namespace

OptionTable &OptionTable::add(const char *Name, const char *Meta,
                              const char *Help, std::string Needs,
                              std::function<bool(const std::string &)> Take) {
  Options.push_back({Name, Meta, Help, std::move(Needs), false,
                     std::move(Take)});
  return *this;
}

OptionTable &OptionTable::flag(const char *Name, bool &Out,
                               const char *Help) {
  return add(Name, nullptr, Help, "", [&Out](const std::string &) {
    Out = true;
    return true;
  });
}

OptionTable &OptionTable::text(const char *Name, const char *Meta,
                               std::string &Out, const char *Help,
                               std::vector<std::string> Allowed) {
  std::string Needs =
      Allowed.empty() ? "a value" : "one of " + join(Allowed, " | ");
  return add(Name, Meta, Help, std::move(Needs),
             [&Out, Allowed = std::move(Allowed)](const std::string &V) {
               if (V.empty() || !allowed(Allowed, V))
                 return false;
               Out = V;
               return true;
             });
}

OptionTable &OptionTable::dir(const char *Name, std::string &Out,
                              const char *Help) {
  return add(Name, "DIR", Help, "a directory ('' for none)",
             [&Out](const std::string &V) {
               Out = V;
               return true;
             });
}

OptionTable &OptionTable::list(const char *Name, std::vector<std::string> &Out,
                               const char *Help,
                               std::vector<std::string> Allowed) {
  std::string Needs = "a comma list";
  if (!Allowed.empty())
    Needs += " of " + join(Allowed, " | ");
  return add(Name, "a,b,...", Help, std::move(Needs),
             [&Out, Allowed = std::move(Allowed)](const std::string &V) {
               std::vector<std::string> Items;
               for (std::string &Item : splitOn(V, ','))
                 if (!Item.empty()) {
                   if (!allowed(Allowed, Item))
                     return false;
                   Items.push_back(std::move(Item));
                 }
               if (Items.empty())
                 return false;
               Out = std::move(Items);
               return true;
             });
}

OptionTable &OptionTable::paths(const char *Name,
                                std::vector<std::string> &Out,
                                const char *Help) {
  add(Name, "PATH...", Help, "at least one path",
      [&Out](const std::string &V) {
        Out.push_back(V);
        return true;
      });
  Options.back().Greedy = true;
  return *this;
}

OptionTable &OptionTable::operand(const char *Meta, std::string &Out) {
  OperandMeta = Meta;
  Operand = &Out;
  return *this;
}

void OptionTable::printUsage() const {
  std::fprintf(stderr, "usage: %s\noptions:\n", Usage);
  for (const Option &O : Options) {
    if (!O.Help)
      continue;
    std::string Left = std::string(O.Name) + (O.Meta ? " " : "") +
                       (O.Meta ? O.Meta : "");
    std::fprintf(stderr, "  %-26s %s\n", Left.c_str(), O.Help);
  }
}

void OptionTable::fail(const std::string &Message) const {
  std::fprintf(stderr, "%s: error: %s\n", Tool, Message.c_str());
  printUsage();
  std::exit(2);
}

void OptionTable::take(const Option &O, const std::string &Value) const {
  if (!O.Take(Value))
    fail(std::string(O.Name) + " needs " + O.Needs + ", got '" + Value + "'");
}

void OptionTable::parse(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg.size() < 2 || Arg[0] != '-') {
      if (!Operand)
        fail("unexpected argument '" + Arg + "'");
      if (!Operand->empty())
        fail(std::string("more than one ") + OperandMeta + " ('" + *Operand +
             "' and '" + Arg + "')");
      *Operand = Arg;
      continue;
    }
    const size_t Eq = Arg.find('=');
    const std::string Name = Arg.substr(0, Eq);
    auto It = std::find_if(Options.begin(), Options.end(),
                           [&](const Option &O) { return Name == O.Name; });
    if (It == Options.end())
      fail("unknown option '" + Name + "'");
    const Option &O = *It;
    if (!O.Meta) {
      if (Eq != std::string::npos)
        fail(Name + " takes no value");
      O.Take("");
      continue;
    }
    const bool Inline = Eq != std::string::npos;
    if (O.Greedy) {
      bool Any = Inline;
      if (Inline)
        take(O, Arg.substr(Eq + 1));
      while (I + 1 < Argc && Argv[I + 1][0] != '-') {
        take(O, Argv[++I]);
        Any = true;
      }
      if (!Any)
        fail(Name + " needs " + O.Needs);
      continue;
    }
    if (!Inline && I + 1 >= Argc)
      fail(Name + " needs " + O.Needs);
    take(O, Inline ? Arg.substr(Eq + 1) : std::string(Argv[++I]));
  }
}

std::unique_ptr<Scenario> cli::loadScenario(const std::string &Path) {
  ScenarioParseResult PR = readScenarioFile(Path);
  if (!PR.ok()) {
    std::string Where = Path;
    if (PR.ErrorLine)
      Where += ":" + std::to_string(PR.ErrorLine);
    std::fprintf(stderr, "%s: error: %s\n", Where.c_str(), PR.Error.c_str());
  }
  return std::move(PR.Parsed);
}

int cli::replay(const std::string &Path, const DiffConfig &Diff) {
  std::unique_ptr<Scenario> S = loadScenario(Path);
  if (!S)
    return 2;
  DiffReport R = DiffRunner(Diff).run(*S);
  const std::string &Inject = Diff.DisabledCriterion.empty()
                                  ? S->DisabledCriterion
                                  : Diff.DisabledCriterion;
  std::printf("replay: %s (engine %s, %zu threads, %zu picks%s)\n%s",
              Path.c_str(), S->Engine.c_str(), S->Threads.size(),
              S->ReplayPicks.size(),
              Inject.empty() ? "" : (", inject " + Inject).c_str(),
              R.toString().c_str());
  if (!R.Built)
    return 2;
  std::printf("%s\n", R.discrepancy()     ? "DISCREPANCY"
                      : R.inconclusive() ? "INCONCLUSIVE"
                                         : "OK");
  return R.discrepancy() ? 1 : 0;
}

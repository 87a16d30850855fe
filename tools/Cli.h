//===- tools/Cli.h - The tools' shared command-line front end ---*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One declarative option table for pprun, ppcheck, ppfuzz and ppstress.
/// A tool lists its options — flags, texts with an optional allowed set,
/// output directories, comma lists, path lists and ranged whole
/// numbers — each bound to the variable it sets, and parse() reads argv
/// against that list.  Every valued option takes both `--name value` and
/// `--name=value`, and every number goes through support's readWhole.  The usage text is generated
/// from the table.  An unknown option or a bad value prints one
/// diagnostic,
///
///   <tool>: error: <option> needs <what it takes>, got '<value>'
///
/// then the usage, and exits 2.  All four tools share one exit contract:
/// 0 clean, 1 a finding, 2 a usage or input error.
///
/// The scenario loader and the `--replay` routine of ppfuzz and ppstress
/// live here too, so input errors read the same in every tool.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_TOOLS_CLI_H
#define PUSHPULL_TOOLS_CLI_H

#include "support/Str.h"

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace pushpull {

struct DiffConfig;
struct Scenario;

namespace cli {

class OptionTable {
public:
  /// \p Usage is the synopsis after "usage: ", one line per form, each
  /// starting with the tool's name.
  OptionTable(const char *Tool, const char *Usage) : Tool(Tool), Usage(Usage) {}

  /// `--name`: sets \p Out.  A null \p Help hides the row from the usage
  /// (an alias such as `-h`).
  OptionTable &flag(const char *Name, bool &Out, const char *Help);
  /// `--name VALUE`: one of \p Allowed when that is not empty.
  OptionTable &text(const char *Name, const char *Meta, std::string &Out,
                    const char *Help, std::vector<std::string> Allowed = {});
  /// `--name DIR`: a directory to write files into; an empty value
  /// (`--name ''` or `--name=`) means write none.
  OptionTable &dir(const char *Name, std::string &Out, const char *Help);
  /// `--name a,b,...`: every element one of \p Allowed when that is not
  /// empty; empty elements are dropped.
  OptionTable &list(const char *Name, std::vector<std::string> &Out,
                    const char *Help, std::vector<std::string> Allowed = {});
  /// `--name PATH...`: every following argument up to the next option;
  /// at least one.
  OptionTable &paths(const char *Name, std::vector<std::string> &Out,
                     const char *Help);
  /// `--name N`: a whole number from \p Min to \p Max.
  template <typename T>
  OptionTable &number(const char *Name, T &Out, uint64_t Min,
                      const char *Help,
                      uint64_t Max = std::numeric_limits<T>::max()) {
    return add(Name, "N", Help,
               "a whole number from " + std::to_string(Min) + " to " +
                   std::to_string(Max),
               [&Out, Min, Max](const std::string &V) {
                 uint64_t N;
                 if (!readWhole(V, Min, Max, N))
                   return false;
                 Out = static_cast<T>(N);
                 return true;
               });
  }
  /// The one argument that is not an option, e.g. pprun's scenario file.
  OptionTable &operand(const char *Meta, std::string &Out);

  /// Read argv; on an error print the diagnostic and the usage, exit 2.
  void parse(int Argc, char **Argv);
  /// Print "<tool>: error: <Message>" and the usage, and exit 2.
  [[noreturn]] void fail(const std::string &Message) const;
  /// The usage text, to stderr.
  void printUsage() const;

private:
  struct Option {
    const char *Name;
    const char *Meta; // Null for a flag.
    const char *Help;
    /// What a value must be, for the diagnostic ("a whole number from 1
    /// to 64", "one of a | b").
    std::string Needs;
    /// Takes every following non-option argument (a path list).
    bool Greedy = false;
    /// Takes one value; false when it is not acceptable.
    std::function<bool(const std::string &)> Take;
  };

  OptionTable &add(const char *Name, const char *Meta, const char *Help,
                   std::string Needs,
                   std::function<bool(const std::string &)> Take);
  void take(const Option &O, const std::string &Value) const;

  const char *Tool;
  const char *Usage;
  std::vector<Option> Options;
  const char *OperandMeta = nullptr;
  std::string *Operand = nullptr;
};

/// Parse the scenario file at \p Path.  On failure print
/// "<path>:<line>: error: <message>" (no line for a file-level error)
/// and return null.
std::unique_ptr<Scenario> loadScenario(const std::string &Path);

/// `--replay FILE` of ppfuzz and ppstress: run a scenario or `.ppsched`
/// reproducer once through the differential battery under \p Diff and
/// print the verdict.  Returns 0 clean (or inconclusive), 1 for a
/// discrepancy, 2 when the file cannot be read, parsed or built.
int replay(const std::string &Path, const DiffConfig &Diff);

} // namespace cli
} // namespace pushpull

#endif // PUSHPULL_TOOLS_CLI_H

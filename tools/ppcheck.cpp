//===- tools/ppcheck.cpp - Static analysis driver -----------------------------===//
//
// Static checks for the PUSH/PULL model, no scheduler in the loop:
//
//   ppcheck --all-engines             criterion-obligation audit for every
//                                     scenario engine (grouped by effective
//                                     rule surface), the fault-injection
//                                     negative battery, and the
//                                     independence-relation audit
//   ppcheck --engine NAME             criterion audit for one engine
//   ppcheck --battery                 negative battery only: every
//                                     injectable criterion must be
//                                     convicted with a minimal witness
//   ppcheck --independence            independence-relation audit only
//   ppcheck --inject "NAME"           audit with that criterion disabled
//                                     (prints the conviction witness)
//   ppcheck --lint PATH...            semantic lint of .pp scenario files
//                                     (directories are searched for *.pp)
//   ppcheck --movers                  certified mover/commutativity table
//                                     for the audit specs (Lipton classes,
//                                     argument predicates, certificates)
//   ppcheck --prove PATH...           whole-program conflict-serializability
//                                     prover over .pp scenario files: PROVED
//                                     (with certified pair count), CONFLICT
//                                     (with the minimal conflicting pair and
//                                     its counterexample witness), or
//                                     UNPROVED (out of scope)
//   ppcheck --list-criteria           print the injectable criterion names
//
// Scope knobs (audits): --threads N --max-local N --max-local-other N
//   --max-global N --max-alphabet N --max-shapes N --spec register|counter
//
// Scope numbers are whole decimals of at least 1; engine, spec and
// criterion names must be known ones.  Every valued option also takes
// the --name=VALUE form.
//
// Verbosity: --witnesses prints every conviction witness; audits always
// print a per-item PASS/FAIL summary.
//
// Exit status: 0 all checks clean, 1 findings (a lint diagnostic
// included), 2 usage or input error (a --prove file that cannot be read
// or parsed included).
//
//===----------------------------------------------------------------------===//

#include "Cli.h"
#include "analysis/IndependenceAudit.h"
#include "analysis/Lint.h"
#include "analysis/MoverTable.h"
#include "analysis/Obligations.h"
#include "sim/Scenario.h"
#include "spec/CounterSpec.h"
#include "spec/RegisterSpec.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace pushpull;

namespace {

struct SpecCase {
  std::string Kind;
  std::string SpecLine;
  std::shared_ptr<const SequentialSpec> Spec;
};

std::vector<SpecCase> specLadder(const std::string &Only) {
  std::vector<SpecCase> Out;
  if (Only.empty() || Only == "register")
    Out.push_back({"register", "spec register name=mem regs=1 vals=2",
                   std::make_shared<RegisterSpec>("mem", 1, 2)});
  if (Only.empty() || Only == "counter")
    Out.push_back({"counter", "spec counter name=c counters=1 mod=2",
                   std::make_shared<CounterSpec>("c", 1, 2)});
  return Out;
}

struct Options {
  ShapeScope Scope;
  std::string SpecOnly;
  uint64_t MaxShapes = 0;
  bool Witnesses = false;
};

int auditEngineGroup(const Options &Opt, const std::string &Label,
                     uint32_t RuleMask, bool PullsUncommitted) {
  int Bad = 0;
  for (const SpecCase &SC : specLadder(Opt.SpecOnly)) {
    CriterionAuditConfig C;
    C.Scope = Opt.Scope;
    C.Spec = SC.Spec.get();
    C.SpecLine = SC.SpecLine;
    C.EngineName = Label;
    C.RuleMask = RuleMask;
    C.PullsUncommitted = PullsUncommitted;
    C.MaxShapes = Opt.MaxShapes;
    CriterionAuditReport R = auditCriteria(C);
    bool Clean = R.clean();
    std::printf("criteria  %-32s %-8s %-4s  shapes=%llu probes=%llu%s\n",
                Label.c_str(), SC.Kind.c_str(), Clean ? "PASS" : "FAIL",
                static_cast<unsigned long long>(R.ShapesAudited),
                static_cast<unsigned long long>(R.ProbesRun),
                Clean ? ""
                      : (" unsound=" + std::to_string(R.Unsound.size()) +
                         " incomplete=" + std::to_string(R.Incomplete.size()))
                            .c_str());
    if (!Clean) {
      ++Bad;
      for (const Divergence &D : R.Unsound) {
        std::printf("  %s\n", D.describe(R.Alphabet).c_str());
        if (Opt.Witnesses)
          std::printf("%s", D.Witness.c_str());
      }
      for (const Divergence &D : R.Incomplete)
        std::printf("  %s\n", D.describe(R.Alphabet).c_str());
    }
  }
  return Bad;
}

int runEngineAudits(const Options &Opt, const std::string &OnlyEngine) {
  // Group engines by effective surface: the machine under audit is
  // engine-independent, so identical surfaces yield identical verdicts.
  std::map<std::pair<uint32_t, bool>, std::vector<std::string>> Groups;
  for (const std::string &Name : allEngineNames()) {
    if (!OnlyEngine.empty() && Name != OnlyEngine)
      continue;
    const EngineSurface &S = *engineSurface(Name);
    Groups[{S.RuleMask, S.PullsUncommitted}].push_back(Name);
  }
  if (Groups.empty()) {
    std::fprintf(stderr, "ppcheck: unknown engine '%s'\n",
                 OnlyEngine.c_str());
    return 2;
  }
  int Bad = 0;
  for (const auto &[Surface, Names] : Groups) {
    std::string Label = Names.front();
    for (size_t I = 1; I < Names.size(); ++I)
      Label += "," + Names[I];
    Bad += auditEngineGroup(Opt, Label, Surface.first, Surface.second);
  }
  return Bad ? 1 : 0;
}

int runBattery(const Options &Opt) {
  int Bad = 0;
  for (const ConvictionResult &R : runNegativeBattery(Opt.Scope)) {
    std::printf("battery   %-32s %-8s %-4s  shapes=%llu probes=%llu%s\n",
                R.Criterion.c_str(),
                R.Convicted ? R.SpecKind.c_str() : "-",
                R.Convicted ? "PASS" : "FAIL",
                static_cast<unsigned long long>(R.ShapesAudited),
                static_cast<unsigned long long>(R.ProbesRun),
                R.EnforcedGray ? "" : "  (gray criteria off)");
    if (!R.Convicted) {
      ++Bad;
      std::printf("  injected '%s' was NOT convicted: the audit cannot "
                  "distinguish the buggy machine\n",
                  R.Criterion.c_str());
    } else if (Opt.Witnesses) {
      std::printf("%s", R.Witness.Witness.c_str());
    }
  }
  return Bad ? 1 : 0;
}

int runInject(const Options &Opt, const std::string &Criterion) {
  bool Gray = Criterion != "UNPUSH criterion (ii)";
  int Bad = 1;
  for (const SpecCase &SC : specLadder(Opt.SpecOnly)) {
    CriterionAuditConfig C;
    C.Scope = Opt.Scope;
    C.Spec = SC.Spec.get();
    C.SpecLine = SC.SpecLine;
    C.EnforceGray = Gray;
    C.DisabledCriterion = Criterion;
    C.StopAtFirstDivergence = true;
    C.MaxShapes = Opt.MaxShapes;
    CriterionAuditReport R = auditCriteria(C);
    if (!R.Unsound.empty()) {
      const Divergence &D = R.Unsound.front();
      std::printf("inject    %-32s %-8s CONVICTED\n  %s\n%s",
                  Criterion.c_str(), SC.Kind.c_str(),
                  D.describe(R.Alphabet).c_str(), D.Witness.c_str());
      Bad = 0;
      break;
    }
    std::printf("inject    %-32s %-8s no conviction (shapes=%llu)\n",
                Criterion.c_str(), SC.Kind.c_str(),
                static_cast<unsigned long long>(R.ShapesAudited));
  }
  return Bad;
}

int runIndependence(const Options &Opt) {
  int Bad = 0;
  for (const SpecCase &SC : specLadder(Opt.SpecOnly)) {
    IndependenceAuditConfig C;
    C.Scope = Opt.Scope;
    C.Spec = SC.Spec.get();
    C.MaxShapes = Opt.MaxShapes;
    IndependenceAuditReport R = auditIndependence(C);
    std::printf("independ  %-32s %-8s %-4s  shapes=%llu pairs=%llu\n",
                "explorer relation", SC.Kind.c_str(),
                R.clean() ? "PASS" : "FAIL",
                static_cast<unsigned long long>(R.ShapesAudited),
                static_cast<unsigned long long>(R.PairsChecked));
    if (!R.clean()) {
      ++Bad;
      for (const IndependenceViolation &V : R.Violations)
        std::printf("  %s\n  at %s\n", V.Reason.c_str(),
                    V.Shape.describe(R.Alphabet).c_str());
    }
  }
  return Bad ? 1 : 0;
}

std::vector<std::string> collectPpFiles(const std::vector<std::string> &Paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> Files;
  for (const std::string &P : Paths) {
    std::error_code EC;
    if (fs::is_directory(P, EC)) {
      for (const auto &Entry : fs::recursive_directory_iterator(P, EC))
        if (Entry.is_regular_file() && Entry.path().extension() == ".pp")
          Files.push_back(Entry.path().string());
    } else {
      Files.push_back(P);
    }
  }
  std::sort(Files.begin(), Files.end());
  return Files;
}

int runLint(const std::vector<std::string> &Paths) {
  std::vector<std::string> Files = collectPpFiles(Paths);
  size_t Errors = 0, Warnings = 0;
  for (const std::string &F : Files) {
    LintReport R = lintScenarioFile(F);
    Errors += R.errors();
    Warnings += R.warnings();
    std::printf("%s", R.render().c_str());
  }
  std::printf("lint: %zu file(s), %zu error(s), %zu warning(s)\n",
              Files.size(), Errors, Warnings);
  return (Errors || Warnings) ? 1 : 0;
}

int runMovers(const Options &Opt) {
  // Informational: render the certified table; FAIL only if a certificate
  // fails its independent re-verification (certChecks counts replays, and
  // every Strong verdict survived one by construction — so a FAIL here
  // means the analysis and its checker disagree, which build() resolves
  // toward the checker).
  for (const SpecCase &SC : specLadder(Opt.SpecOnly)) {
    MoverChecker Movers(*SC.Spec);
    MoverTable T = MoverTable::build(*SC.Spec, Movers);
    std::printf("movers    %-32s %-8s %s", SC.Spec->name().c_str(),
                SC.Kind.c_str(), T.familyExact() ? "PASS\n" : "PART\n");
    std::printf("%s", T.toString().c_str());
  }
  return 0;
}

int runProve(const std::vector<std::string> &Paths, bool Witnesses) {
  std::vector<std::string> Files = collectPpFiles(Paths);
  int Rc = 0;
  size_t Proved = 0, Conflicts = 0, Unproved = 0;
  uint64_t CertChecks = 0;
  for (const std::string &F : Files) {
    std::unique_ptr<Scenario> Parsed = cli::loadScenario(F);
    if (!Parsed) {
      Rc = 2;
      continue;
    }
    const Scenario &S = *Parsed;
    CommutativityDB DB(*S.Spec, S.Movers.MaxReachableSets);
    ProveResult R = proveSerializable(S, DB);
    CertChecks += DB.certChecks();
    switch (R.V) {
    case ProveResult::Verdict::Proved:
      ++Proved;
      break;
    case ProveResult::Verdict::Conflict:
      ++Conflicts;
      break;
    case ProveResult::Verdict::Unproved:
      ++Unproved;
      break;
    }
    std::printf("prove     %-32s %-8s %-9s pairs=%zu\n",
                std::filesystem::path(F).filename().string().c_str(),
                S.Engine.c_str(), toString(R.V).c_str(), R.PairsChecked);
    if (R.V != ProveResult::Verdict::Proved || Witnesses)
      std::printf("  %s\n", R.Detail.c_str());
  }
  std::printf("prove: %zu file(s), %zu proved, %zu conflict(s), %zu "
              "unproved, cert-checks=%llu\n",
              Files.size(), Proved, Conflicts, Unproved,
              static_cast<unsigned long long>(CertChecks));
  // All three verdicts are analysis results, not findings: only input
  // errors fail the run.
  return Rc;
}

} // namespace

int main(int argc, char **argv) {
  Options Opt;
  bool AllEngines = false, Battery = false, Independence = false,
       Movers = false, ListCriteria = false, Help = false;
  std::string OnlyEngine, Inject;
  std::vector<std::string> LintPaths, ProvePaths;
  cli::OptionTable Opts(
      "ppcheck", "ppcheck [--all-engines | --engine NAME | --battery |\n"
                 "                --independence | --inject NAME | --lint "
                 "PATH... |\n"
                 "                --movers | --prove PATH... | "
                 "--list-criteria] [scope options]");
  Opts.flag("--all-engines", AllEngines,
            "criterion audit of every engine, battery, independence")
      .text("--engine", "NAME", OnlyEngine, "criterion audit for one engine",
            allEngineNames())
      .flag("--battery", Battery, "the fault-injection negative battery")
      .flag("--independence", Independence, "independence-relation audit")
      .text("--inject", "NAME", Inject, "audit with that criterion disabled",
            injectableCriteria())
      .paths("--lint", LintPaths, "semantic lint of .pp scenario files")
      .flag("--movers", Movers, "certified mover/commutativity tables")
      .paths("--prove", ProvePaths, "whole-program serializability prover")
      .flag("--list-criteria", ListCriteria,
            "print the injectable criterion names")
      .number("--threads", Opt.Scope.Threads, 1, "audit scope: threads")
      .number("--max-local", Opt.Scope.MaxLocalSubject, 1,
              "audit scope: subject local-log cap")
      .number("--max-local-other", Opt.Scope.MaxLocalOther, 1,
              "audit scope: other local-log cap")
      .number("--max-global", Opt.Scope.MaxGlobal, 1,
              "audit scope: shared-log cap")
      .number("--max-alphabet", Opt.Scope.MaxAlphabet, 1,
              "audit scope: probe-alphabet prefix")
      .number("--max-shapes", Opt.MaxShapes, 1,
              "audit scope: shapes (default unlimited)")
      .text("--spec", "KIND", Opt.SpecOnly, "audit one spec only",
            {"register", "counter"})
      .flag("--witnesses", Opt.Witnesses, "print every conviction witness")
      .flag("--help", Help, "print this usage")
      .flag("-h", Help, nullptr);
  Opts.parse(argc, argv);
  if (Help) {
    Opts.printUsage();
    return 0;
  }
  if (ListCriteria) {
    for (const std::string &N : injectableCriteria())
      std::printf("%s\n", N.c_str());
    return 0;
  }

  int Rc = 0;
  bool Ran = false;
  if (!Inject.empty()) {
    Ran = true;
    Rc = std::max(Rc, runInject(Opt, Inject));
  }
  if (AllEngines || !OnlyEngine.empty()) {
    Ran = true;
    Rc = std::max(Rc, runEngineAudits(Opt, OnlyEngine));
  }
  if (Battery || AllEngines) {
    Ran = true;
    Rc = std::max(Rc, runBattery(Opt));
  }
  if (Independence || AllEngines) {
    Ran = true;
    Rc = std::max(Rc, runIndependence(Opt));
  }
  if (!LintPaths.empty()) {
    Ran = true;
    Rc = std::max(Rc, runLint(LintPaths));
  }
  if (Movers) {
    Ran = true;
    Rc = std::max(Rc, runMovers(Opt));
  }
  if (!ProvePaths.empty()) {
    Ran = true;
    Rc = std::max(Rc, runProve(ProvePaths, Opt.Witnesses));
  }
  if (!Ran)
    Opts.fail("nothing to check");
  return Rc;
}

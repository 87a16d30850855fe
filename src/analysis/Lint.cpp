//===- analysis/Lint.cpp - Semantic .pp scenario linter --------------------===//

#include "analysis/Lint.h"

#include "analysis/Obligations.h"
#include "core/Mover.h"
#include "core/Spec.h"
#include "lang/Ast.h"
#include "sim/Scenario.h"
#include "support/Str.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

using namespace pushpull;

std::string LintDiag::render() const {
  return File + ":" + std::to_string(Line) + ": " +
         (Severity == LintSeverity::Error ? "error" : "warning") + ": [" +
         Check + "] " + Message;
}

size_t LintReport::errors() const {
  return static_cast<size_t>(
      std::count_if(Diags.begin(), Diags.end(), [](const LintDiag &D) {
        return D.Severity == LintSeverity::Error;
      }));
}

size_t LintReport::warnings() const { return Diags.size() - errors(); }

std::string LintReport::render() const {
  std::string Out;
  for (const LintDiag &D : Diags)
    Out += D.render() + "\n";
  return Out;
}

namespace {

/// Tokenize a directive line the way the scenario parser does.
std::vector<std::string> lintWords(const std::string &Line) {
  std::vector<std::string> Out;
  std::istringstream In(Line);
  std::string W;
  while (In >> W)
    Out.push_back(W);
  return Out;
}

/// Line-number anchors for the directives the linter re-checks (the
/// scenario parser validates syntax but defers these to run time).
struct DirectiveMap {
  size_t EngineLine = 0;
  std::string EngineName;
  size_t InjectLine = 0;
  std::string InjectName;
  std::vector<std::pair<size_t, std::string>> Checks;
  std::vector<size_t> ThreadLines;
};

DirectiveMap scanDirectives(const std::string &Text) {
  DirectiveMap Map;
  std::vector<std::string> Lines = splitOn(Text, '\n');
  for (size_t N = 0; N < Lines.size(); ++N) {
    std::string Line = Lines[N];
    size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line = Line.substr(0, Hash);
    std::vector<std::string> Ws = lintWords(Line);
    if (Ws.empty())
      continue;
    if (Ws[0] == "engine" && Ws.size() >= 2) {
      Map.EngineLine = N + 1;
      Map.EngineName = Ws[1];
    } else if (Ws[0] == "check" && Ws.size() >= 2) {
      Map.Checks.emplace_back(N + 1, Ws[1]);
    } else if (Ws[0] == "inject") {
      Map.InjectLine = N + 1;
      size_t At = Line.find("inject");
      std::string Name = Line.substr(At + 6);
      size_t B = Name.find_first_not_of(" \t");
      size_t E = Name.find_last_not_of(" \t\r");
      if (B != std::string::npos)
        Map.InjectName = Name.substr(B, E - B + 1);
    } else if (Ws[0] == "thread") {
      Map.ThreadLines.push_back(N + 1);
    }
  }
  return Map;
}

/// The method surface plus the spec itself, for never-enabled probing.
struct LintContext {
  std::string File;
  size_t Line = 0; // Current thread's line.
  const std::vector<MethodSig> *Sigs = nullptr;
  const SequentialSpec *Spec = nullptr;
  /// Union of reachable spec states (empty when the reachable family is
  /// not exact, which disables the never-enabled check).
  std::vector<State> Reachable;
  LintReport *Report = nullptr;

  void diag(LintSeverity Sev, std::string Check, std::string Msg) const {
    LintDiag D;
    D.File = File;
    D.Line = Line;
    D.Severity = Sev;
    D.Check = std::move(Check);
    D.Message = std::move(Msg);
    Report->Diags.push_back(std::move(D));
  }

  const MethodSig *findSig(const MethodExpr &M, bool &ObjectKnown) const {
    ObjectKnown = false;
    const MethodSig *Found = nullptr;
    for (const MethodSig &S : *Sigs) {
      if (S.Object != M.Object)
        continue;
      ObjectKnown = true;
      if (S.Method == M.Method)
        Found = &S;
    }
    return Found;
  }
};

/// The member states of \p Spec's reachable family (core/Mover.h): every
/// state some probe log reaches.  Empty when the family is not exact.
std::vector<State> reachableStates(const SequentialSpec &Spec,
                                   MoverLimits Limits) {
  MoverChecker Movers(Spec, Limits);
  const ReachableFamily &F = Movers.family();
  if (!F.Exact)
    return {};
  std::set<State> Seen;
  for (StateSetId Id : F.Sets) {
    const std::vector<State> &States = Spec.setOf(Id).states();
    Seen.insert(States.begin(), States.end());
  }
  return std::vector<State>(Seen.begin(), Seen.end());
}

using DefinedSet = std::set<std::string>;

bool containsCall(const CodePtr &C) {
  if (!C)
    return false;
  switch (C->kind()) {
  case CodeKind::Skip:
    return false;
  case CodeKind::Call:
    return true;
  case CodeKind::Seq:
  case CodeKind::Choice:
    return containsCall(C->lhs()) || containsCall(C->rhs());
  case CodeKind::Loop:
  case CodeKind::Tx:
    return containsCall(C->body());
  }
  return false;
}

void checkCall(const LintContext &Ctx, const MethodExpr &M,
               DefinedSet &Defined) {
  bool ObjectKnown = false;
  const MethodSig *Sig = Ctx.findSig(M, ObjectKnown);
  if (!ObjectKnown) {
    Ctx.diag(LintSeverity::Error, "unknown-object",
             "no spec declares object '" + M.Object + "' (call " +
                 M.toString() + ")");
  } else if (!Sig) {
    Ctx.diag(LintSeverity::Error, "unknown-method",
             "object '" + M.Object + "' has no method '" + M.Method + "'");
  } else {
    if (M.Args.size() != Sig->Arity)
      Ctx.diag(LintSeverity::Error, "arity-mismatch",
               M.Object + "." + M.Method + " takes " +
                   std::to_string(Sig->Arity) + " argument(s), got " +
                   std::to_string(M.Args.size()));
    if (M.ResultVar && !Sig->HasResult)
      Ctx.diag(LintSeverity::Error, "void-result-binding",
               "binding '" + *M.ResultVar + "' to void method " + M.Object +
                   "." + M.Method + " (the variable stays unbound)");
  }
  bool AllLiteral = true;
  for (const Arg &A : M.Args) {
    if (const std::string *Var = std::get_if<std::string>(&A)) {
      AllLiteral = false;
      if (!Defined.count(*Var))
        Ctx.diag(LintSeverity::Error, "uninitialized-variable",
                 "argument variable '" + *Var +
                     "' is not definitely assigned at " + M.toString());
    }
  }
  // never-enabled: a literal call with no completion anywhere in the
  // reachable state space can never fire — its statement is unreachable.
  if (AllLiteral && Sig && M.Args.size() == Sig->Arity &&
      !Ctx.Reachable.empty()) {
    ResolvedCall Call;
    Call.Object = M.Object;
    Call.Method = M.Method;
    for (const Arg &A : M.Args)
      Call.Args.push_back(std::get<Value>(A));
    bool Enabled = false;
    for (const State &S : Ctx.Reachable)
      if (!Ctx.Spec->completions(S, Call).empty()) {
        Enabled = true;
        break;
      }
    if (!Enabled)
      Ctx.diag(LintSeverity::Warning, "never-enabled",
               "call " + Call.toString() +
                   " has no completion from any reachable state and can "
                   "never fire");
  }
  if (M.ResultVar && Sig && Sig->HasResult)
    Defined.insert(*M.ResultVar);
}

/// Must-defined dataflow + structural checks, returning the set of
/// variables definitely assigned after \p C runs from \p In.
DefinedSet checkCode(const LintContext &Ctx, const CodePtr &C,
                     const DefinedSet &In) {
  if (!C)
    return In;
  switch (C->kind()) {
  case CodeKind::Skip:
    return In;
  case CodeKind::Call: {
    DefinedSet Out = In;
    checkCall(Ctx, C->call(), Out);
    return Out;
  }
  case CodeKind::Seq:
    return checkCode(Ctx, C->rhs(), checkCode(Ctx, C->lhs(), In));
  case CodeKind::Choice: {
    if (codeEquals(C->lhs(), C->rhs()))
      Ctx.diag(LintSeverity::Warning, "dead-choice",
               "both branches of '+' are identical: " + C->printed());
    DefinedSet L = checkCode(Ctx, C->lhs(), In);
    DefinedSet R = checkCode(Ctx, C->rhs(), In);
    DefinedSet Out;
    std::set_intersection(L.begin(), L.end(), R.begin(), R.end(),
                          std::inserter(Out, Out.begin()));
    return Out;
  }
  case CodeKind::Loop:
    if (!containsCall(C->body()))
      Ctx.diag(LintSeverity::Warning, "dead-loop",
               "loop body performs no method call: " + C->printed());
    // The body may run zero times: check it against the entry set, keep
    // nothing it defines.
    checkCode(Ctx, C->body(), In);
    return In;
  case CodeKind::Tx:
    return checkCode(Ctx, C->body(), In);
  }
  return In;
}

const std::vector<std::string> &validCheckNames() {
  static const std::vector<std::string> Names = {
      "serializability", "serializability-any", "opacity", "invariants",
      "explore"};
  return Names;
}

} // namespace

LintReport pushpull::lintScenarioText(const std::string &FileName,
                                      const std::string &Text) {
  LintReport Report;
  ScenarioParseResult PR = parseScenario(Text);
  if (!PR.ok()) {
    LintDiag D;
    D.File = FileName;
    D.Line = PR.ErrorLine;
    D.Severity = LintSeverity::Error;
    D.Check = "parse-error";
    D.Message = PR.Error;
    Report.Diags.push_back(std::move(D));
    return Report;
  }
  const Scenario &S = *PR.Parsed;
  DirectiveMap Map = scanDirectives(Text);

  LintContext Ctx;
  Ctx.File = FileName;
  Ctx.Report = &Report;
  std::vector<MethodSig> Sigs = S.Spec->methods();
  Ctx.Sigs = &Sigs;
  Ctx.Spec = S.Spec.get();
  Ctx.Reachable = reachableStates(*S.Spec, S.Movers);

  // Directive-level checks the parser defers to run time.
  const std::vector<std::string> &Engines = allEngineNames();
  if (std::find(Engines.begin(), Engines.end(), S.Engine) == Engines.end()) {
    Ctx.Line = Map.EngineLine;
    Ctx.diag(LintSeverity::Error, "unknown-engine",
             "unknown engine '" + S.Engine + "'");
  }
  for (const auto &[Line, Name] : Map.Checks) {
    const std::vector<std::string> &Valid = validCheckNames();
    if (std::find(Valid.begin(), Valid.end(), Name) == Valid.end()) {
      Ctx.Line = Line;
      Ctx.diag(LintSeverity::Error, "unknown-check",
               "unknown check '" + Name + "'");
    }
  }
  if (!S.DisabledCriterion.empty()) {
    const std::vector<std::string> &Known = injectableCriteria();
    if (std::find(Known.begin(), Known.end(), S.DisabledCriterion) ==
        Known.end()) {
      Ctx.Line = Map.InjectLine;
      Ctx.diag(LintSeverity::Error, "unknown-inject",
               "no injectable criterion named '" + S.DisabledCriterion +
                   "'");
    }
  }

  // Per-thread semantic pass.  One sigma flows through a thread's whole
  // transaction sequence, so the defined set accumulates across txs.
  for (size_t T = 0; T < S.Threads.size(); ++T) {
    Ctx.Line = T < Map.ThreadLines.size() ? Map.ThreadLines[T] : 0;
    DefinedSet Defined;
    for (const CodePtr &Tx : S.Threads[T]) {
      if (!containsCall(Tx))
        Ctx.diag(LintSeverity::Warning, "empty-transaction",
                 "transaction performs no method call: tx { " +
                     (Tx ? Tx->printed() : std::string("skip")) + " }");
      Defined = checkCode(Ctx, Tx, Defined);
    }
  }
  return Report;
}

LintReport pushpull::lintScenarioFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    LintReport Report;
    LintDiag D;
    D.File = Path;
    D.Line = 0;
    D.Severity = LintSeverity::Error;
    D.Check = "parse-error";
    D.Message = "cannot read file";
    Report.Diags.push_back(std::move(D));
    return Report;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  return lintScenarioText(Path, Buf.str());
}

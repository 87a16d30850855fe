//===- core/Criteria.h - Rule criteria reporting ----------------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every PUSH/PULL rule comes with named correctness criteria ("PUSH
/// criterion (ii)", etc.).  The machine evaluates each criterion
/// individually and reports a per-criterion verdict, so that a TM algorithm
/// implementor can see exactly which side-condition their step would
/// violate — the workflow the paper proposes: demarcate the algorithm into
/// rule fragments, then discharge each criterion.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_CORE_CRITERIA_H
#define PUSHPULL_CORE_CRITERIA_H

#include "support/SmallVec.h"
#include "support/Tri.h"

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

namespace pushpull {

/// The seven reductions of Figure 5.
enum class RuleKind {
  App,    ///< APP: apply a next method locally.
  UnApp,  ///< UNAPP: rewind the most recent unpushed application.
  Push,   ///< PUSH: share a local effect with the global log.
  UnPush, ///< UNPUSH: recall an effect from the global log.
  Pull,   ///< PULL: view another transaction's published effect.
  UnPull, ///< UNPULL: discard knowledge of a pulled effect.
  Commit, ///< CMT: make all pushed effects permanent.
};

std::string toString(RuleKind K);

/// A view of a string of static storage duration, in practice a string
/// literal.  The only converting constructor is consteval and takes a char
/// array, so it accepts literals and static arrays but not a runtime
/// pointer: text built at run time (a std::string temporary, c_str())
/// cannot compile into a view that would dangle.  Criterion names, details
/// and rule messages are all of this type, so recording one never copies
/// or allocates.
class StaticText {
public:
  constexpr StaticText() = default;
  template <size_t N>
  consteval StaticText(const char (&S)[N]) : Data(S), Size(N - 1) {}

  constexpr std::string_view view() const { return {Data, Size}; }
  constexpr bool empty() const { return Size == 0; }

  friend bool operator==(StaticText A, std::string_view B) {
    return A.view() == B;
  }

private:
  const char *Data = "";
  size_t Size = 0;
};

std::ostream &operator<<(std::ostream &OS, StaticText T);

/// Verdict for one named criterion of one rule application.
struct CriterionReport {
  /// Paper-style name, e.g. "PUSH criterion (ii)".
  StaticText Name;
  /// Human-readable explanation (which operation failed to move, etc.).
  StaticText Detail;
  Tri Verdict = Tri::Unknown;

  bool holds() const { return Verdict == Tri::Yes; }
};

/// The reports of one rule attempt.  No Figure 5 rule has more than four
/// criteria, so the inline capacity keeps every report off the heap, and
/// names and details are StaticText views of literals, so filling a report
/// copies no text: a rejected attempt allocates nothing (rejections
/// outnumber applications on every explored scope).
using CriterionReports = SmallVec<CriterionReport, 4>;

/// Result of attempting one rule.  When \c Applied is false the machine
/// state was left unchanged; the reports say why.
struct RuleResult {
  RuleKind Rule = RuleKind::App;
  bool Applied = false;
  CriterionReports Criteria;
  /// Message for failures not attributable to a numbered criterion
  /// (e.g. "no such local-log entry").
  StaticText Message;

  /// First criterion whose verdict is not Yes, or nullptr.
  const CriterionReport *firstFailure() const;

  /// Render for diagnostics.
  std::string toString() const;

  static RuleResult applied(RuleKind K, CriterionReports Rs = {});
  static RuleResult rejected(RuleKind K, CriterionReports Rs,
                             StaticText Msg = {});
  static RuleResult malformed(RuleKind K, StaticText Msg);
};

/// Build a passing/failing report with the paper-style criterion name.
CriterionReport criterion(StaticText Name, Tri Verdict,
                          StaticText Detail = {});

} // namespace pushpull

#endif // PUSHPULL_CORE_CRITERIA_H

//===- core/Criteria.cpp - Rule criteria reporting --------------------------===//

#include "core/Criteria.h"

#include <ostream>

using namespace pushpull;

std::string pushpull::toString(RuleKind K) {
  switch (K) {
  case RuleKind::App:
    return "APP";
  case RuleKind::UnApp:
    return "UNAPP";
  case RuleKind::Push:
    return "PUSH";
  case RuleKind::UnPush:
    return "UNPUSH";
  case RuleKind::Pull:
    return "PULL";
  case RuleKind::UnPull:
    return "UNPULL";
  case RuleKind::Commit:
    return "CMT";
  }
  return "?";
}

const CriterionReport *RuleResult::firstFailure() const {
  for (const CriterionReport &R : Criteria)
    if (!R.holds())
      return &R;
  return nullptr;
}

std::ostream &pushpull::operator<<(std::ostream &OS, StaticText T) {
  return OS << T.view();
}

std::string RuleResult::toString() const {
  std::string Out = pushpull::toString(Rule);
  Out += Applied ? ": applied" : ": rejected";
  if (!Message.empty()) {
    Out += " (";
    Out += Message.view();
    Out += ")";
  }
  for (const CriterionReport &R : Criteria) {
    Out += "\n  ";
    Out += R.Name.view();
    Out += ": " + pushpull::toString(R.Verdict);
    if (!R.Detail.empty()) {
      Out += " -- ";
      Out += R.Detail.view();
    }
  }
  return Out;
}

RuleResult RuleResult::applied(RuleKind K, CriterionReports Rs) {
  RuleResult Out;
  Out.Rule = K;
  Out.Applied = true;
  Out.Criteria = std::move(Rs);
  return Out;
}

RuleResult RuleResult::rejected(RuleKind K, CriterionReports Rs,
                                StaticText Msg) {
  RuleResult Out;
  Out.Rule = K;
  Out.Applied = false;
  Out.Criteria = std::move(Rs);
  Out.Message = Msg;
  return Out;
}

RuleResult RuleResult::malformed(RuleKind K, StaticText Msg) {
  return rejected(K, {}, Msg);
}

CriterionReport pushpull::criterion(StaticText Name, Tri Verdict,
                                    StaticText Detail) {
  CriterionReport R;
  R.Name = Name;
  R.Detail = Detail;
  R.Verdict = Verdict;
  return R;
}

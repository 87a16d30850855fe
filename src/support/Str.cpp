//===- support/Str.cpp - Small string helpers -----------------------------===//

#include "support/Str.h"

using namespace pushpull;

std::string pushpull::join(const std::vector<std::string> &Parts,
                           const std::string &Sep) {
  std::string Out;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

bool pushpull::startsWith(const std::string &S, const std::string &Prefix) {
  return S.size() >= Prefix.size() &&
         S.compare(0, Prefix.size(), Prefix) == 0;
}

std::vector<std::string> pushpull::splitOn(const std::string &S, char Sep) {
  std::vector<std::string> Out;
  size_t Start = 0;
  for (size_t I = 0; I <= S.size(); ++I) {
    if (I == S.size() || S[I] == Sep) {
      Out.push_back(S.substr(Start, I - Start));
      Start = I + 1;
    }
  }
  return Out;
}

bool pushpull::readWhole(std::string_view Text, uint64_t Min, uint64_t Max,
                         uint64_t &Out) {
  if (Text.empty())
    return false;
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    uint64_t D = static_cast<uint64_t>(C - '0');
    if (D > Max || V > (Max - D) / 10)
      return false; // Above Max, so never past 2^64 either.
    V = V * 10 + D;
  }
  if (V < Min)
    return false;
  Out = V;
  return true;
}

std::string pushpull::wholeNumberError(std::string_view What, uint64_t Min,
                                       uint64_t Max, std::string_view Text) {
  return std::string(What) + " needs a whole number from " +
         std::to_string(Min) + " to " + std::to_string(Max) + ", got '" +
         std::string(Text) + "'";
}

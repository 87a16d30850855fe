//===- spec/KeyedSpec.cpp - Specs with one integer per key ------------------===//

#include "spec/KeyedSpec.h"

#include <algorithm>
#include <cassert>
#include <charconv>

using namespace pushpull;

std::vector<Value> pushpull::decodeValues(const State &S) {
  std::vector<Value> Out;
  const char *P = S.data(), *End = P + S.size();
  while (P != End) {
    Value V = 0;
    P = std::from_chars(P, End, V).ptr;
    Out.push_back(V);
    if (P != End)
      ++P; // The comma.
  }
  return Out;
}

State pushpull::encodeValues(const std::vector<Value> &Values) {
  State Out;
  for (size_t I = 0; I < Values.size(); ++I) {
    if (I)
      Out += ',';
    Out += std::to_string(Values[I]);
  }
  return Out;
}

/// Offset of field \p K of an encoded state.
static size_t fieldStart(const State &S, Value K) {
  size_t At = 0;
  for (; K > 0; --K)
    At = S.find(',', At) + 1;
  return At;
}

/// The value that starts at offset \p At of an encoded state.
static Value valueAt(const State &S, size_t At) {
  Value V = 0;
  std::from_chars(S.data() + At, S.data() + S.size(), V);
  return V;
}

KeyedSpec::KeyedSpec(std::string Object, unsigned NumKeys, Value Lo,
                     Value Hi, Value Initial)
    : Object(std::move(Object)), NumKeys(NumKeys), Lo(Lo), Hi(Hi),
      Initial(Initial) {
  assert(NumKeys > 0 && Lo <= Initial && Initial <= Hi && "degenerate spec");
}

bool KeyedSpec::ownsKey(const ResolvedCall &C) const {
  return C.Object == Object && !C.Args.empty() && validKey(C.Args[0]);
}

std::vector<State> KeyedSpec::initialStates() const {
  return {encodeValues(std::vector<Value>(NumKeys, Initial))};
}

std::vector<State> KeyedSpec::successors(const State &S,
                                         const Operation &Op) const {
  if (!ownsKey(Op.Call))
    return {};
  size_t At = fieldStart(S, Op.Call.Args[0]);
  Value Cur = valueAt(S, At);
  std::optional<Value> Next = step(Cur, Op);
  if (!Next)
    return {};
  State Out = S;
  if (*Next != Cur)
    Out.replace(At, std::min(S.find(',', At), S.size()) - At,
                std::to_string(*Next));
  return {std::move(Out)};
}

std::vector<Completion>
KeyedSpec::completions(const State &S, const ResolvedCall &Call) const {
  if (!ownsKey(Call))
    return {};
  return results(valueAt(S, fieldStart(S, Call.Args[0])), Call);
}

Tri KeyedSpec::leftMoverHint(const Operation &A, const Operation &B) const {
  if (A.Call.Object != B.Call.Object)
    return Tri::Yes; // Disjoint objects always commute.
  if (!ownsKey(A.Call) || !ownsKey(B.Call))
    return Tri::Unknown; // Not ours to judge.
  if (A.Call.Args[0] != B.Call.Args[0])
    return Tri::Yes; // Distinct keys commute: boosting's abstract locks.

  // Same key: both orders from every value of the key's domain.
  for (Value Cur = Lo; Cur <= Hi; ++Cur) {
    std::optional<Value> AB = step(Cur, A);
    if (AB)
      AB = step(*AB, B);
    if (!AB)
      continue; // l.A.B not allowed here: vacuous.
    std::optional<Value> BA = step(Cur, B);
    if (BA)
      BA = step(*BA, A);
    if (BA != AB)
      return Tri::No;
  }
  return Tri::Yes;
}

//===- lang/Parser.cpp - Concrete-syntax parser ----------------------------===//

#include "lang/Parser.h"

#include "support/Str.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>

using namespace pushpull;

namespace {

/// Recursive-descent parser state.  Errors are sticky: after the first
/// failure all productions return null and the message is preserved.
class Parser {
public:
  explicit Parser(const std::string &Text) : Text(Text) {}

  CodePtr parseAll() {
    CodePtr C = parseChoice();
    skipWs();
    if (C && Pos != Text.size())
      return fail("trailing input after statement");
    return C;
  }

  const std::string &error() const { return Err; }
  size_t errorPos() const { return ErrPos; }

private:
  CodePtr fail(const std::string &Msg) {
    if (Err.empty()) {
      Err = Msg;
      ErrPos = Pos;
    }
    return nullptr;
  }

  void skipWs() {
    while (Pos < Text.size()) {
      if (std::isspace(static_cast<unsigned char>(Text[Pos]))) {
        ++Pos;
        continue;
      }
      // Line comments: // ... end-of-line.
      if (Text[Pos] == '/' && Pos + 1 < Text.size() && Text[Pos + 1] == '/') {
        while (Pos < Text.size() && Text[Pos] != '\n')
          ++Pos;
        continue;
      }
      break;
    }
  }

  bool eat(char C) {
    skipWs();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool peek(char C) {
    skipWs();
    return Pos < Text.size() && Text[Pos] == C;
  }

  /// Parse an identifier; empty string on failure (no error recorded).
  std::string ident() {
    skipWs();
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '_'))
      ++Pos;
    return Text.substr(Start, Pos - Start);
  }

  /// Try to consume keyword \p Kw at the cursor (with identifier boundary).
  bool keyword(const std::string &Kw) {
    skipWs();
    size_t Save = Pos;
    std::string Id = ident();
    if (Id == Kw)
      return true;
    Pos = Save;
    return false;
  }

  CodePtr parseChoice() {
    CodePtr L = parseSeq();
    while (L && eat('+')) {
      CodePtr R = parseSeq();
      if (!R)
        return nullptr;
      L = choice(std::move(L), std::move(R));
    }
    return L;
  }

  CodePtr parseSeq() {
    CodePtr L = parsePostfix();
    while (L && eat(';')) {
      CodePtr R = parsePostfix();
      if (!R)
        return nullptr;
      L = seq(std::move(L), std::move(R));
    }
    return L;
  }

  CodePtr parsePostfix() {
    CodePtr C = parsePrim();
    while (C && eat('*'))
      C = loop(std::move(C));
    return C;
  }

  CodePtr parsePrim() {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    if (eat('(')) {
      CodePtr C = parseChoice();
      if (!C)
        return nullptr;
      if (!eat(')'))
        return fail("expected ')'");
      return C;
    }
    if (keyword("skip"))
      return skip();
    if (keyword("tx")) {
      if (!eat('{'))
        return fail("expected '{' after tx");
      CodePtr B = parseChoice();
      if (!B)
        return nullptr;
      if (!eat('}'))
        return fail("expected '}' closing tx");
      return tx(std::move(B));
    }
    return parseCall();
  }

  CodePtr parseCall() {
    std::string First = ident();
    if (First.empty())
      return fail("expected statement");
    std::optional<std::string> ResultVar;
    std::string Object;
    // Either "obj.method(...)" or "var := obj.method(...)".
    skipWs();
    if (Pos + 1 < Text.size() && Text[Pos] == ':' && Text[Pos + 1] == '=') {
      Pos += 2;
      ResultVar = First;
      Object = ident();
      if (Object.empty())
        return fail("expected object name after ':='");
    } else {
      Object = First;
    }
    if (!eat('.'))
      return fail("expected '.' in method call");
    std::string Method = ident();
    if (Method.empty())
      return fail("expected method name");
    if (!eat('('))
      return fail("expected '(' in method call");
    std::vector<Arg> Args;
    if (!peek(')')) {
      do {
        std::optional<Arg> A = parseArg();
        if (!A)
          return nullptr;
        Args.push_back(std::move(*A));
      } while (eat(','));
    }
    if (!eat(')'))
      return fail("expected ')' closing argument list");
    return call(std::move(Object), std::move(Method), std::move(Args),
                std::move(ResultVar));
  }

  std::optional<Arg> parseArg() {
    skipWs();
    if (Pos < Text.size() &&
        (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
         Text[Pos] == '-')) {
      size_t Start = Pos;
      if (Text[Pos] == '-')
        ++Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
      bool Negative = Text[Start] == '-';
      if (Pos == Start + Negative) {
        fail("expected integer literal");
        return std::nullopt;
      }
      // The magnitude of a Value: up to 2^63 below zero, 2^63-1 above.
      const uint64_t Limit =
          static_cast<uint64_t>(std::numeric_limits<Value>::max()) + Negative;
      uint64_t Magnitude = 0;
      std::string_view Digits(Text.data() + Start + Negative,
                              Pos - Start - Negative);
      if (!readWhole(Digits, 0, Limit, Magnitude)) {
        fail("integer literal " + Text.substr(Start, Pos - Start) +
             " does not fit a 64-bit value");
        return std::nullopt;
      }
      return Arg(Negative && Magnitude
                     ? -static_cast<Value>(Magnitude - 1) - 1
                     : static_cast<Value>(Magnitude));
    }
    std::string Id = ident();
    if (Id.empty()) {
      fail("expected argument");
      return std::nullopt;
    }
    return Arg(std::move(Id));
  }

  const std::string &Text;
  size_t Pos = 0;
  std::string Err;
  size_t ErrPos = 0;
};

} // namespace

ParseResult pushpull::parseCode(const std::string &Text) {
  Parser P(Text);
  ParseResult Out;
  Out.Parsed = P.parseAll();
  if (!Out.Parsed) {
    Out.Error = P.error().empty() ? "parse error" : P.error();
    Out.ErrorPos = P.errorPos();
  }
  return Out;
}

CodePtr pushpull::parseOrDie(const std::string &Text) {
  ParseResult R = parseCode(Text);
  if (!R.ok()) {
    // A hard failure in every build, like the machine's Full-level
    // invariant checks: under NDEBUG an assert would hand the caller a
    // null program to crash on somewhere else.
    std::fprintf(stderr,
                 "pushpull: parseOrDie: %s at offset %zu of \"%s\"\n",
                 R.Error.c_str(), R.ErrorPos, Text.c_str());
    std::abort();
  }
  return R.Parsed;
}

//===- lang/Parser.h - Concrete-syntax parser -------------------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent parser for the Example 1 language, so examples
/// and tests can write programs as text:
///
///   stmt    := choice
///   choice  := seq ('+' seq)*
///   seq     := postfix (';' postfix)*
///   postfix := prim '*'*
///   prim    := 'skip' | 'tx' '{' stmt '}' | '(' stmt ')' | call
///   call    := [ident ':='] ident '.' ident '(' (arg (',' arg)*)? ')'
///   arg     := integer | ident
///
/// Choice binds loosest, then sequencing, then the postfix loop.  Example:
///
///   tx { v := set.add(3); (ctr.inc() + skip); (set.contains(3))* }
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_LANG_PARSER_H
#define PUSHPULL_LANG_PARSER_H

#include "lang/Ast.h"

#include <string>

namespace pushpull {

/// Outcome of a parse: either Code is non-null, or Error describes the
/// failure and ErrorPos is the byte offset it was detected at.
struct ParseResult {
  CodePtr Parsed;
  std::string Error;
  size_t ErrorPos = 0;

  bool ok() const { return Parsed != nullptr; }
};

/// Parse \p Text into a code tree.  Never throws; errors are reported in
/// the result.
ParseResult parseCode(const std::string &Text);

/// Parse, or print the parse error and its offset to stderr and abort (in
/// every build).  For use in tests and examples on known-good literals.
CodePtr parseOrDie(const std::string &Text);

} // namespace pushpull

#endif // PUSHPULL_LANG_PARSER_H

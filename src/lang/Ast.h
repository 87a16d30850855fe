//===- lang/Ast.h - Transaction language AST --------------------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generic input language of Example 1 of the paper:
///
///   c ::= c1 + c2 | c1 ; c2 | (c)* | skip | tx c | m
///
/// with nondeterministic choice (+), sequential composition (;),
/// nondeterministic looping (*), the empty statement, transactions, and
/// method calls m.  Method calls name a shared object and method, carry
/// argument expressions (literals or thread-stack variables), and may bind
/// their result to a stack variable.
///
/// Code values are immutable and shared; continuations produced by step()
/// alias subtrees of the original program.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_LANG_AST_H
#define PUSHPULL_LANG_AST_H

#include "core/Op.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace pushpull {

class Code;
struct StepItem;
/// Immutable shared handle to a code tree.
using CodePtr = std::shared_ptr<const Code>;

/// A method-call argument: either a literal value or a thread-stack
/// variable resolved at APP time.
using Arg = std::variant<Value, std::string>;

/// An unresolved method call as it appears in program text, e.g.
/// "v := map.get(k)".
struct MethodExpr {
  std::string Object;
  std::string Method;
  std::vector<Arg> Args;
  /// Variable the result is bound to, if any.
  std::optional<std::string> ResultVar;

  /// Resolve argument expressions against \p Sigma.  Returns nullopt when
  /// an argument variable is unbound (the call is then not executable).
  std::optional<ResolvedCall> resolve(const Stack &Sigma) const;

  std::string toString() const;
};

/// Node discriminator for Code.
enum class CodeKind {
  Skip,   ///< skip
  Call,   ///< m
  Seq,    ///< c1 ; c2
  Choice, ///< c1 + c2
  Loop,   ///< (c)*
  Tx,     ///< tx c
};

/// One immutable node of the code tree.  Construct via the factory
/// functions below; fields not meaningful for a kind are empty.
class Code {
public:
  CodeKind kind() const { return Kind; }

  /// The call payload; valid only for CodeKind::Call.
  const MethodExpr &call() const;
  /// Left child; valid for Seq and Choice.
  const CodePtr &lhs() const;
  /// Right child; valid for Seq and Choice.
  const CodePtr &rhs() const;
  /// Body; valid for Loop and Tx.
  const CodePtr &body() const;

  /// Structural (not pointer) equality.
  bool equals(const Code &O) const;

  /// This node rendered as by printCode, computed once and cached on the
  /// node (nodes are immutable and shared; configuration keys intern it
  /// once per table through keyCache()).
  const std::string &printed() const;

  /// Memo slot for the id a StateTable interned printed() under
  /// (StateTable::codeKey); never part of node identity.
  const InternCache &keyCache() const { return KeyCache; }

  // Factories.
  static CodePtr makeSkip();
  static CodePtr makeCall(MethodExpr M);
  static CodePtr makeSeq(CodePtr L, CodePtr R);
  static CodePtr makeChoice(CodePtr L, CodePtr R);
  static CodePtr makeLoop(CodePtr B);
  static CodePtr makeTx(CodePtr B);

private:
  explicit Code(CodeKind K) : Kind(K) {}

  friend const std::vector<StepItem> &step(const CodePtr &C);
  friend bool fin(const CodePtr &C);

  CodeKind Kind;
  MethodExpr Call;
  CodePtr Lhs, Rhs, Body;
  /// Lazily filled by printed(); never part of node identity.
  mutable std::once_flag PrintedOnce;
  mutable std::string Printed;
  InternCache KeyCache;
  /// step(c) computed once per node (lang/StepFin.cpp): nodes are
  /// immutable, and the machine recomputes step(remaining code) on every
  /// APP attempt and every candidate enumeration.  Memoizing also makes
  /// the continuation nodes canonical, so their own printed()/step()
  /// caches stay warm instead of being rebuilt on fresh nodes each call.
  /// (A Loop node's cache holds a continuation that references the node
  /// itself — a reference cycle that pins one small vector per distinct
  /// loop node for the process lifetime, bounded by program text size.)
  mutable std::once_flag StepOnce;
  mutable std::shared_ptr<const std::vector<StepItem>> StepCache;
  /// fin(c) memo: -1 unset, else 0/1.  Relaxed atomics — the computed
  /// value is a pure function of the immutable node, so racing writers
  /// store the same value.
  mutable std::atomic<signed char> FinCache{-1};
};

/// Convenience free-function aliases for building programs fluently.
/// \{
CodePtr skip();
CodePtr call(std::string Object, std::string Method,
             std::vector<Arg> Args = {},
             std::optional<std::string> ResultVar = std::nullopt);
CodePtr seq(CodePtr L, CodePtr R);
/// Right-nested sequence of all of \p Cs (skip when empty).
CodePtr seqAll(std::vector<CodePtr> Cs);
CodePtr choice(CodePtr L, CodePtr R);
CodePtr loop(CodePtr B);
CodePtr tx(CodePtr B);
/// \}

/// Structural equality on possibly-null code handles.
bool codeEquals(const CodePtr &A, const CodePtr &B);

} // namespace pushpull

#endif // PUSHPULL_LANG_AST_H

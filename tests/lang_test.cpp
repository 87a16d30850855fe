//===- tests/lang_test.cpp - AST / step / fin / parser / printer ------------===//

#include "lang/Ast.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "lang/StepFin.h"

#include <gtest/gtest.h>

using namespace pushpull;

namespace {

CodePtr m(const std::string &Name) { return call("o", Name, {}); }

/// Names of the methods step(c) can reach next.
std::vector<std::string> nextMethods(const CodePtr &C) {
  std::vector<std::string> Out;
  for (const StepItem &It : step(C))
    Out.push_back(It.Call.Method);
  std::sort(Out.begin(), Out.end());
  return Out;
}

} // namespace

TEST(Fin, Table) {
  // fin(skip) = true, fin(m) = false.
  EXPECT_TRUE(fin(skip()));
  EXPECT_FALSE(fin(m("a")));
  // fin(c1;c2) = fin(c1) /\ fin(c2).
  EXPECT_TRUE(fin(seq(skip(), skip())));
  EXPECT_FALSE(fin(seq(skip(), m("a"))));
  EXPECT_FALSE(fin(seq(m("a"), skip())));
  // fin(c1+c2) = fin(c1) \/ fin(c2).
  EXPECT_TRUE(fin(choice(m("a"), skip())));
  EXPECT_TRUE(fin(choice(skip(), m("a"))));
  EXPECT_FALSE(fin(choice(m("a"), m("b"))));
  // fin((c)*) = true.
  EXPECT_TRUE(fin(loop(m("a"))));
  // fin(tx c) = fin(c).
  EXPECT_TRUE(fin(tx(skip())));
  EXPECT_FALSE(fin(tx(m("a"))));
}

TEST(Step, SkipIsEmpty) { EXPECT_TRUE(step(skip()).empty()); }

TEST(Step, MethodStepsToSkip) {
  auto S = step(m("a"));
  ASSERT_EQ(S.size(), 1u);
  EXPECT_EQ(S[0].Call.Method, "a");
  EXPECT_EQ(S[0].Rest->kind(), CodeKind::Skip);
}

TEST(Step, ChoiceUnions) {
  EXPECT_EQ(nextMethods(choice(m("a"), m("b"))),
            (std::vector<std::string>{"a", "b"}));
}

TEST(Step, SeqSkipsFinishableHead) {
  // step(c1;c2) includes step(c2) when fin(c1).
  EXPECT_EQ(nextMethods(seq(skip(), m("b"))),
            (std::vector<std::string>{"b"}));
  EXPECT_EQ(nextMethods(seq(choice(skip(), m("a")), m("b"))),
            (std::vector<std::string>{"a", "b"}));
  // ...but not when fin(c1) is false.
  EXPECT_EQ(nextMethods(seq(m("a"), m("b"))),
            (std::vector<std::string>{"a"}));
}

TEST(Step, SeqKeepsContinuation) {
  auto S = step(seq(m("a"), m("b")));
  ASSERT_EQ(S.size(), 1u);
  // Continuation is skip; b.
  EXPECT_EQ(nextMethods(S[0].Rest), (std::vector<std::string>{"b"}));
}

TEST(Step, LoopUnrollsOnce) {
  auto S = step(loop(m("a")));
  ASSERT_EQ(S.size(), 1u);
  // Continuation is skip ; (a)* — can run a again.
  EXPECT_EQ(nextMethods(S[0].Rest), (std::vector<std::string>{"a"}));
  EXPECT_TRUE(fin(S[0].Rest));
}

TEST(Step, TxTransparent) {
  EXPECT_EQ(nextMethods(tx(choice(m("a"), m("b")))),
            (std::vector<std::string>{"a", "b"}));
}

TEST(Step, PaperExample) {
  // Section 3: c = tx (skip ; (c1 + (m + n)) ; c2) — one path reaches
  // method n with continuation c2.
  CodePtr C1 = m("c1");
  CodePtr C2 = m("c2");
  CodePtr C = tx(seq(seq(skip(), choice(C1, choice(m("m"), m("n")))), C2));
  bool FoundN = false;
  for (const StepItem &It : step(C)) {
    if (It.Call.Method != "n")
      continue;
    FoundN = true;
    EXPECT_EQ(nextMethods(It.Rest), (std::vector<std::string>{"c2"}));
  }
  EXPECT_TRUE(FoundN);
}

TEST(ReachableMethods, CollectsAllSubterms) {
  CodePtr C = tx(seq(choice(m("a"), m("b")), loop(m("c"))));
  auto Ms = reachableMethods(C);
  std::vector<std::string> Names;
  for (const MethodExpr &ME : Ms)
    Names.push_back(ME.Method);
  std::sort(Names.begin(), Names.end());
  EXPECT_EQ(Names, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(MethodExpr, ResolveLiteralsAndVars) {
  MethodExpr ME;
  ME.Object = "map";
  ME.Method = "put";
  ME.Args = {Arg(Value(3)), Arg(std::string("v"))};
  Stack S;
  EXPECT_FALSE(ME.resolve(S).has_value());
  S.set("v", 9);
  auto RC = ME.resolve(S);
  ASSERT_TRUE(RC.has_value());
  EXPECT_EQ(RC->Object, "map");
  EXPECT_EQ(RC->Method, "put");
  EXPECT_EQ(RC->Args, (std::vector<Value>{3, 9}));
}

TEST(CodeEquality, Structural) {
  EXPECT_TRUE(codeEquals(skip(), skip()));
  EXPECT_TRUE(codeEquals(seq(m("a"), m("b")), seq(m("a"), m("b"))));
  EXPECT_FALSE(codeEquals(seq(m("a"), m("b")), seq(m("b"), m("a"))));
  EXPECT_FALSE(codeEquals(m("a"), loop(m("a"))));
  EXPECT_TRUE(codeEquals(tx(m("a")), tx(m("a"))));
}

TEST(Parser, Skip) {
  auto R = parseCode("skip");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Parsed->kind(), CodeKind::Skip);
}

TEST(Parser, SimpleCall) {
  auto R = parseCode("set.add(3)");
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.Parsed->kind(), CodeKind::Call);
  EXPECT_EQ(R.Parsed->call().Object, "set");
  EXPECT_EQ(R.Parsed->call().Method, "add");
  ASSERT_EQ(R.Parsed->call().Args.size(), 1u);
  EXPECT_EQ(std::get<Value>(R.Parsed->call().Args[0]), 3);
}

TEST(Parser, ResultBinding) {
  auto R = parseCode("v := map.get(2)");
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.Parsed->kind(), CodeKind::Call);
  ASSERT_TRUE(R.Parsed->call().ResultVar.has_value());
  EXPECT_EQ(*R.Parsed->call().ResultVar, "v");
}

TEST(Parser, VariableArgs) {
  auto R = parseCode("map.put(1, v)");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(std::get<std::string>(R.Parsed->call().Args[1]), "v");
}

TEST(Parser, NegativeLiteral) {
  auto R = parseCode("c.add(0, -3)");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(std::get<Value>(R.Parsed->call().Args[1]), -3);
}

TEST(Parser, PrecedenceChoiceLoosest) {
  // a() ; b() + c() parses as (a;b) + c.
  auto R = parseCode("o.a(); o.b() + o.c()");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Parsed->kind(), CodeKind::Choice);
  EXPECT_EQ(R.Parsed->lhs()->kind(), CodeKind::Seq);
}

TEST(Parser, StarPostfix) {
  auto R = parseCode("(o.a())*");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Parsed->kind(), CodeKind::Loop);
}

TEST(Parser, TxBlock) {
  auto R = parseCode("tx { o.a(); o.b() }");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Parsed->kind(), CodeKind::Tx);
  EXPECT_EQ(R.Parsed->body()->kind(), CodeKind::Seq);
}

TEST(Parser, Comments) {
  auto R = parseCode("// leading comment\n o.a() // trailing\n");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Parsed->kind(), CodeKind::Call);
}

TEST(Parser, Errors) {
  EXPECT_FALSE(parseCode("").ok());
  EXPECT_FALSE(parseCode("tx {").ok());
  EXPECT_FALSE(parseCode("o.a(").ok());
  EXPECT_FALSE(parseCode("o.a() extra").ok());
  EXPECT_FALSE(parseCode("o.a() +").ok());
  EXPECT_FALSE(parseCode("(o.a()").ok());
  EXPECT_FALSE(parseCode("x := := o.a()").ok());
  for (const char *Bad : {"", "tx {", "o.a("}) {
    auto R = parseCode(Bad);
    EXPECT_FALSE(R.Error.empty()) << Bad;
  }
}

TEST(ParserDeathTest, ParseOrDieAbortsOnInvalidTextInEveryBuild) {
  // Two transactions with no ';' between them: an assert-only check would
  // return a null program under NDEBUG, and flattenTransactions would
  // crash on it.
  ParseResult R = parseCode("tx { c.inc(0) } tx { c.inc(0) }");
  ASSERT_FALSE(R.ok());
  EXPECT_DEATH(parseOrDie("tx { c.inc(0) } tx { c.inc(0) }"),
               "parseOrDie: .* at offset " + std::to_string(R.ErrorPos));
  EXPECT_DEATH(parseOrDie("tx {"), "parseOrDie: .*\"tx \\{\"");
  EXPECT_TRUE(parseOrDie("tx { c.inc(0) }; tx { c.inc(0) }"));
}

TEST(Printer, RoundTripsThroughParser) {
  const char *Programs[] = {
      "skip",
      "set.add(3)",
      "v := map.get(2)",
      "tx { o.a(); o.b() }",
      "o.a() + o.b(); o.c()",
      "(o.a() + skip)*",
      "tx { v := set.add(1); (ctr.inc(0) + skip); (set.contains(1))* }",
  };
  for (const char *P : Programs) {
    CodePtr C = parseOrDie(P);
    std::string Printed = printCode(C);
    auto Re = parseCode(Printed);
    ASSERT_TRUE(Re.ok()) << "reparse failed: " << Printed;
    EXPECT_TRUE(codeEquals(C, Re.Parsed))
        << "round-trip changed: " << P << " -> " << Printed;
  }
}

TEST(SeqAll, BuildsRightNestedSequence) {
  EXPECT_EQ(seqAll({})->kind(), CodeKind::Skip);
  EXPECT_TRUE(codeEquals(seqAll({m("a")}), m("a")));
  EXPECT_TRUE(
      codeEquals(seqAll({m("a"), m("b"), m("c")}),
                 seq(m("a"), seq(m("b"), m("c")))));
}

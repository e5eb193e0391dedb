#include "rewriting/minicon.h"

#include <algorithm>

#include "containment/cq_containment.h"
#include "engine/evaluate.h"
#include "gtest/gtest.h"
#include "parser/parser.h"
#include "rewriting/expansion.h"
#include "rewriting/exportable.h"
#include "rewriting/view_set.h"

namespace cqac {
namespace {

std::vector<ConjunctiveQuery> Rules(const std::string& program) {
  return Parser::MustParseProgram(program);
}

bool HasTuple(const std::vector<Mcd>& mcds, const std::string& tuple) {
  return std::any_of(mcds.begin(), mcds.end(), [&tuple](const Mcd& m) {
    return m.view_tuple.ToString() == tuple;
  });
}

TEST(MiniConTest, SimpleFullCover) {
  const ConjunctiveQuery q = Parser::MustParseRule("q(X,Y) :- a(X,Y)");
  const auto mcds = FormMcds(q, Rules("v(T,U) :- a(T,U)"));
  ASSERT_EQ(mcds.size(), 1u);
  EXPECT_EQ(mcds[0].view_tuple.ToString(), "v(X,Y)");
  EXPECT_EQ(mcds[0].covered, (std::vector<int>{0}));
  EXPECT_TRUE(McdCombinationExists(mcds, 1));
}

TEST(MiniConTest, HeadVariableCannotMapToExistential) {
  // X is distinguished in the query but the view projects it away.
  const ConjunctiveQuery q = Parser::MustParseRule("q(X) :- a(X,Y)");
  const auto mcds = FormMcds(q, Rules("v(U) :- a(T,U)"));
  EXPECT_TRUE(mcds.empty());
}

TEST(MiniConTest, ExistentialQueryVariableMayMapToExistential) {
  const ConjunctiveQuery q = Parser::MustParseRule("q(X) :- a(X,Y)");
  const auto mcds = FormMcds(q, Rules("v(T) :- a(T,U)"));
  ASSERT_EQ(mcds.size(), 1u);
  EXPECT_EQ(mcds[0].view_tuple.ToString(), "v(X)");
}

TEST(MiniConTest, SharedVariablePropertyPullsInSubgoals) {
  // Y maps to the view's existential W, so both query subgoals touching Y
  // must be covered by the same MCD.
  const ConjunctiveQuery q = Parser::MustParseRule("q(X,Z) :- a(X,Y), b(Y,Z)");
  const auto mcds = FormMcds(q, Rules("v(T,U) :- a(T,W), b(W,U)"));
  ASSERT_EQ(mcds.size(), 1u);
  EXPECT_EQ(mcds[0].covered, (std::vector<int>{0, 1}));
  EXPECT_EQ(mcds[0].view_tuple.ToString(), "v(X,Z)");
}

TEST(MiniConTest, SharedVariablePropertyFailsWhenViewTooSmall) {
  // Y must stay joinable but v only covers the a-subgoal.
  const ConjunctiveQuery q = Parser::MustParseRule("q(X,Z) :- a(X,Y), b(Y,Z)");
  const auto mcds = FormMcds(q, Rules("v(T) :- a(T,W)"));
  EXPECT_TRUE(mcds.empty());
}

TEST(MiniConTest, DistinguishedJoinVariableAllowsSplit) {
  // Y is exported by both views, so each subgoal can be covered alone.
  const ConjunctiveQuery q = Parser::MustParseRule("q(X,Z) :- a(X,Y), b(Y,Z)");
  const auto mcds = FormMcds(q, Rules(
                                    "v1(T,W) :- a(T,W).\n"
                                    "v2(W,U) :- b(W,U)."));
  ASSERT_EQ(mcds.size(), 2u);
  EXPECT_TRUE(HasTuple(mcds, "v1(X,Y)"));
  EXPECT_TRUE(HasTuple(mcds, "v2(Y,Z)"));
  EXPECT_TRUE(McdCombinationExists(mcds, 2));
}

TEST(MiniConTest, PaperExample5VariantMcds) {
  // Q0: q(A) :- r(A), s(A,A); V0 includes the exported variant
  // v(Y,Y) :- r(Y), s(Y,Y).
  const ConjunctiveQuery q0 = Parser::MustParseRule("q(A) :- r(A), s(A,A)");
  const ConjunctiveQuery view = Parser::MustParseRule(
      "v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z");
  const auto mcds = FormMcds(q0, BuildV0Variants(view));
  EXPECT_TRUE(HasTuple(mcds, "v(A,A)"));
  EXPECT_TRUE(McdCombinationExists(
      mcds, static_cast<int>(q0.body().size())));
}

TEST(MiniConTest, LazyHeadHomomorphismFromRepeatedQueryVariable) {
  // s(A,A) forces the view's two head variables to be equated.
  const ConjunctiveQuery q = Parser::MustParseRule("q(A) :- s(A,A)");
  const auto mcds = FormMcds(q, Rules("v(Y,Z) :- s(Y,Z)"));
  ASSERT_EQ(mcds.size(), 1u);
  EXPECT_EQ(mcds[0].view_tuple.ToString(), "v(A,A)");
}

TEST(MiniConTest, QueryConstantPinsDistinguishedPosition) {
  const ConjunctiveQuery q = Parser::MustParseRule("q(X) :- a(X,3)");
  const auto mcds = FormMcds(q, Rules("v(T,U) :- a(T,U)"));
  ASSERT_EQ(mcds.size(), 1u);
  EXPECT_EQ(mcds[0].view_tuple.ToString(), "v(X,3)");
}

TEST(MiniConTest, QueryConstantCannotReachExistential) {
  const ConjunctiveQuery q = Parser::MustParseRule("q(X) :- a(X,3)");
  const auto mcds = FormMcds(q, Rules("v(T) :- a(T,U)"));
  EXPECT_TRUE(mcds.empty());
}

TEST(MiniConTest, ViewConstantMustMatchQueryConstant) {
  const ConjunctiveQuery q = Parser::MustParseRule("q(X) :- a(X,3)");
  EXPECT_EQ(FormMcds(q, Rules("v(T) :- a(T,3)")).size(), 1u);
  EXPECT_TRUE(FormMcds(q, Rules("v(T) :- a(T,4)")).empty());
}

TEST(MiniConTest, FreshVariablesForUnreachedHeadPositions) {
  const ConjunctiveQuery q = Parser::MustParseRule("q(X) :- a(X)");
  const auto mcds = FormMcds(q, Rules("v(T,U) :- a(T), b(U)"));
  ASSERT_EQ(mcds.size(), 1u);
  const Atom& tuple = mcds[0].view_tuple;
  EXPECT_EQ(tuple.args()[0], Term::Variable("X"));
  EXPECT_TRUE(tuple.args()[1].IsVariable());
  EXPECT_EQ(tuple.args()[1].name().rfind("_f", 0), 0u);
}

TEST(MiniConTest, OneToOneSubgoalMapping) {
  // Two identical query subgoals need two distinct view subgoals under the
  // one-to-one restriction; a single-subgoal view covers each separately.
  const ConjunctiveQuery q =
      Parser::MustParseRule("q() :- a(X,Y), a(Y,Z)");
  const auto mcds = FormMcds(q, Rules("v(T,U) :- a(T,U)"));
  // a(X,Y) -> v(X,Y) and a(Y,Z) -> v(Y,Z); no MCD covers both (the view
  // has a single a-subgoal).
  ASSERT_EQ(mcds.size(), 2u);
  for (const Mcd& m : mcds) EXPECT_EQ(m.covered.size(), 1u);
  EXPECT_TRUE(McdCombinationExists(mcds, 2));
}

TEST(MiniConTest, CombinationRequiresDisjointCoverage) {
  Mcd a;
  a.view_tuple = Atom("v", {});
  a.covered = {0, 1};
  Mcd b;
  b.view_tuple = Atom("w", {});
  b.covered = {1, 2};
  EXPECT_FALSE(McdCombinationExists({a, b}, 3));
  Mcd c;
  c.view_tuple = Atom("u", {});
  c.covered = {2};
  EXPECT_TRUE(McdCombinationExists({a, c}, 3));
}

TEST(MiniConTest, CombinationEnumerationCount) {
  Mcd a;
  a.view_tuple = Atom("v", {});
  a.covered = {0};
  Mcd b = a;
  b.view_tuple = Atom("w", {});
  Mcd c;
  c.view_tuple = Atom("u", {});
  c.covered = {1};
  int count = 0;
  ForEachMcdCombination({a, b, c}, 2,
                        [&count](const std::vector<const Mcd*>&) {
                          ++count;
                          return true;
                        });
  EXPECT_EQ(count, 2);  // {a,c} and {b,c}.
}

TEST(MiniConRewritingsTest, SimpleJoinRewriting) {
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X,Z) :- a(X,Y), b(Y,Z)");
  const std::vector<ConjunctiveQuery> views = Rules(
      "v1(T,W) :- a(T,W).\n"
      "v2(W,U) :- b(W,U).");
  const UnionQuery rewritings = MiniConRewritings(q, views);
  ASSERT_EQ(rewritings.size(), 1);
  const ConjunctiveQuery& r = rewritings.disjuncts()[0];
  // Its expansion must be equivalent to the query (here even equal).
  const ConjunctiveQuery expansion = Expand(r, ViewSet(views));
  EXPECT_TRUE(CqContained(expansion, q));
  EXPECT_TRUE(CqContained(q, expansion));
}

TEST(MiniConRewritingsTest, EveryDisjunctIsContained) {
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X) :- a(X,Y), b(Y,X)");
  const std::vector<ConjunctiveQuery> views = Rules(
      "v1(T) :- a(T,W), b(W,T).\n"
      "v2(T,W) :- a(T,W).\n"
      "v3(W,T) :- b(W,T).");
  const UnionQuery rewritings = MiniConRewritings(q, views);
  ASSERT_GT(rewritings.size(), 0);
  for (const ConjunctiveQuery& r : rewritings.disjuncts()) {
    const ConjunctiveQuery expansion = Expand(r, ViewSet(views));
    EXPECT_TRUE(CqContained(expansion, q)) << r.ToString();
  }
}

TEST(MiniConRewritingsTest, NoRewritingWhenSubgoalUncoverable) {
  const ConjunctiveQuery q = Parser::MustParseRule("q(X) :- a(X), c(X)");
  const UnionQuery rewritings =
      MiniConRewritings(q, Rules("v(T) :- a(T)"));
  EXPECT_TRUE(rewritings.empty());
}

TEST(MiniConRewritingsTest, AnswersOverViewExtension) {
  // The union of the MiniCon rewritings, evaluated over a view extension,
  // gives the certain answers of a plain CQ.
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X,Z) :- a(X,Y), b(Y,Z)");
  const std::vector<ConjunctiveQuery> views = Rules(
      "v1(T,W) :- a(T,W).\n"
      "v2(W,U) :- b(W,U).\n"
      "v3(T,U) :- a(T,W), b(W,U).");

  Database extension;
  extension.Insert("v1", {Rational(1), Rational(2)});
  extension.Insert("v2", {Rational(2), Rational(3)});
  extension.Insert("v3", {Rational(7), Rational(9)});

  const Relation answers =
      Evaluate(MiniConRewritings(q, views), extension);
  EXPECT_EQ(answers.ToString(), "{(1,3), (7,9)}");
}

}  // namespace
}  // namespace cqac

#include "ast/query.h"

#include "gtest/gtest.h"
#include "parser/parser.h"

namespace cqac {
namespace {

TEST(QueryTest, AccessorsAndToString) {
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X,Y) :- a(X,Z), b(Z,Y), X < 5");
  EXPECT_EQ(q.name(), "q");
  EXPECT_EQ(q.head().arity(), 2);
  EXPECT_EQ(q.body().size(), 2u);
  EXPECT_EQ(q.comparisons().size(), 1u);
  EXPECT_EQ(q.ToString(), "q(X,Y) :- a(X,Z), b(Z,Y), X < 5");
}

TEST(QueryTest, IsPlainCQ) {
  EXPECT_TRUE(Parser::MustParseRule("q(X) :- a(X)").IsPlainCQ());
  EXPECT_FALSE(Parser::MustParseRule("q(X) :- a(X), X < 1").IsPlainCQ());
}

TEST(QueryTest, IsBoolean) {
  EXPECT_TRUE(Parser::MustParseRule("q() :- a(X)").IsBoolean());
  EXPECT_FALSE(Parser::MustParseRule("q(X) :- a(X)").IsBoolean());
}

TEST(QueryTest, HeadVariablesDedupedInOrder) {
  const ConjunctiveQuery q = Parser::MustParseRule("q(X,Y,X) :- a(X,Y)");
  EXPECT_EQ(q.HeadVariables(), (std::vector<std::string>{"X", "Y"}));
}

TEST(QueryTest, HeadVariablesSkipConstants) {
  const ConjunctiveQuery q = Parser::MustParseRule("q(3,Y) :- a(Y)");
  EXPECT_EQ(q.HeadVariables(), (std::vector<std::string>{"Y"}));
}

TEST(QueryTest, BodyVariablesInFirstSeenOrder) {
  const ConjunctiveQuery q = Parser::MustParseRule("q(X) :- a(Z,X), b(Y,Z)");
  EXPECT_EQ(q.BodyVariables(), (std::vector<std::string>{"Z", "X", "Y"}));
}

TEST(QueryTest, AllVariablesIncludesComparisonOnlyVars) {
  // Unsafe query, but AllVariables should still see W.
  const ConjunctiveQuery q = Parser::MustParseRule("q(X) :- a(X), W < 3");
  EXPECT_EQ(q.AllVariables(), (std::vector<std::string>{"X", "W"}));
}

TEST(QueryTest, ConstantsSortedAndDeduped) {
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X) :- a(X,7), b(2,X), X < 7, X > 0.5");
  EXPECT_EQ(q.Constants(),
            (std::vector<Rational>{Rational(1, 2), Rational(2), Rational(7)}));
}

TEST(QueryTest, IsDistinguished) {
  const ConjunctiveQuery q = Parser::MustParseRule("q(X) :- a(X,Y)");
  EXPECT_TRUE(q.IsDistinguished("X"));
  EXPECT_FALSE(q.IsDistinguished("Y"));
}

TEST(QueryTest, SafetyHolds) {
  EXPECT_TRUE(Parser::MustParseRule("q(X) :- a(X,Y), X < Y").IsSafe());
}

TEST(QueryTest, SafetyFailsForUnboundHeadVariable) {
  EXPECT_FALSE(Parser::MustParseRule("q(X) :- a(Y)").IsSafe());
}

TEST(QueryTest, SafetyFailsForUnboundComparisonVariable) {
  EXPECT_FALSE(Parser::MustParseRule("q(X) :- a(X), W < 3").IsSafe());
}

TEST(QueryTest, WithoutComparisons) {
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X) :- a(X,Y), X < 5, Y >= 0");
  const ConjunctiveQuery q0 = q.WithoutComparisons();
  EXPECT_TRUE(q0.IsPlainCQ());
  EXPECT_EQ(q0.body(), q.body());
  EXPECT_EQ(q0.head(), q.head());
}

TEST(QueryTest, ApplySubstitution) {
  const ConjunctiveQuery q = Parser::MustParseRule("q(X) :- a(X,Y), X < Y");
  Substitution s;
  s.Bind("Y", Term::Constant(3));
  EXPECT_EQ(q.ApplySubstitution(s).ToString(), "q(X) :- a(X,3), X < 3");
}

TEST(QueryTest, RenameVariablesIsConsistent) {
  const ConjunctiveQuery q = Parser::MustParseRule("q(X,Y) :- a(X,Z), b(Z,Y)");
  Substitution renaming;
  const ConjunctiveQuery renamed = q.RenameVariables("V", &renaming);
  EXPECT_EQ(renamed.ToString(), "q(V0,V1) :- a(V0,V2), b(V2,V1)");
  EXPECT_EQ(renaming.Apply(Term::Variable("Z")), Term::Variable("V2"));
}

TEST(QueryTest, DeduplicatedDropsRepeats) {
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X) :- a(X), a(X), X < 3, X < 3");
  const ConjunctiveQuery d = q.Deduplicated();
  EXPECT_EQ(d.body().size(), 1u);
  EXPECT_EQ(d.comparisons().size(), 1u);
}

TEST(QueryTest, EqualityIsStructural) {
  const ConjunctiveQuery a = Parser::MustParseRule("q(X) :- a(X), X < 3");
  const ConjunctiveQuery b = Parser::MustParseRule("q(X) :- a(X), X < 3");
  const ConjunctiveQuery c = Parser::MustParseRule("q(X) :- a(X), X < 4");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(UnionQueryTest, BasicsAndToString) {
  UnionQuery u;
  EXPECT_TRUE(u.empty());
  u.Add(Parser::MustParseRule("r() :- v1()"));
  u.Add(Parser::MustParseRule("r() :- v2()"));
  EXPECT_EQ(u.size(), 2);
  EXPECT_EQ(u.ToString(), "r() :- v1()\nr() :- v2()");
}

}  // namespace
}  // namespace cqac

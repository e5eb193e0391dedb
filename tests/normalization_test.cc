#include "testing/normalization.h"

#include "containment/cqac_containment.h"
#include "gtest/gtest.h"
#include "parser/parser.h"

namespace cqac {
namespace {

TEST(NormalizationTest, FreshVariablePerPosition) {
  const ConjunctiveQuery q = Parser::MustParseRule("q(X) :- a(X,X), b(3)");
  const ConjunctiveQuery n = testing::NormalizeQuery(q);
  ASSERT_EQ(n.body().size(), 2u);
  EXPECT_EQ(n.body()[0].ToString(), "a(_n0,_n1)");
  EXPECT_EQ(n.body()[1].ToString(), "b(_n2)");
  ASSERT_EQ(n.comparisons().size(), 3u);
  EXPECT_EQ(n.comparisons()[0].ToString(), "_n0 = X");
  EXPECT_EQ(n.comparisons()[1].ToString(), "_n1 = X");
  EXPECT_EQ(n.comparisons()[2].ToString(), "_n2 = 3");
}

TEST(NormalizationTest, HeadUntouchedAndComparisonsKept) {
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X,5) :- a(X,Y), X < Y");
  const ConjunctiveQuery n = testing::NormalizeQuery(q);
  EXPECT_EQ(n.head(), q.head());
  EXPECT_EQ(n.comparisons().back().ToString(), "X < Y");
}

TEST(NormalizationTest, PreservesSemantics) {
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X) :- a(X,X), b(3), X < 7");
  const ConjunctiveQuery n = testing::NormalizeQuery(q);
  EXPECT_TRUE(CqacEquivalent(q, n));
}

TEST(NormalizationTest, EmptyBodyStable) {
  const ConjunctiveQuery q(Atom("q", {}), {});
  const ConjunctiveQuery n = testing::NormalizeQuery(q);
  EXPECT_TRUE(n.body().empty());
  EXPECT_TRUE(n.comparisons().empty());
}

// All four containment implementations must agree.
struct Case {
  const char* q1;
  const char* q2;
};

class AllMethodsAgreeProperty : public ::testing::TestWithParam<Case> {};

TEST_P(AllMethodsAgreeProperty, CanonicalImplicationNormalized) {
  const ConjunctiveQuery q1 = Parser::MustParseRule(GetParam().q1);
  const ConjunctiveQuery q2 = Parser::MustParseRule(GetParam().q2);
  const bool canonical = CqacContainedCanonical(q1, q2);
  EXPECT_EQ(canonical, CqacContainedImplication(q1, q2))
      << q1.ToString() << " vs " << q2.ToString();
  EXPECT_EQ(canonical, testing::CqacContainedNormalized(q1, q2))
      << q1.ToString() << " vs " << q2.ToString();
  // The single-mapping test is sound: a positive answer must agree.
  if (testing::CqacContainedSingleMapping(q1, q2)) {
    EXPECT_TRUE(canonical) << q1.ToString() << " vs " << q2.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllMethodsAgreeProperty,
    ::testing::Values(
        Case{"q(X) :- a(X), X < 3", "q(X) :- a(X), X < 5"},
        Case{"q(X) :- a(X), X < 5", "q(X) :- a(X), X < 3"},
        Case{"q() :- p(X), X = 3", "q() :- p(3)"},
        Case{"q() :- p(3)", "q() :- p(X), X = 3"},
        Case{"q() :- p(X,Y), p(Y,X)", "q() :- p(U,V), U <= V"},
        Case{"q() :- p(X,Y)", "q() :- p(U,V), U <= V"},
        Case{"q(X) :- a(X,X)", "q(X) :- a(X,Y)"},
        Case{"q(X) :- a(X,Y)", "q(X) :- a(X,X)"},
        Case{"q(X) :- a(X,Y), X < Y", "q(X) :- a(X,Y), X <= Y"},
        Case{"q(X) :- a(X,3)", "q(X) :- a(X,Y), X < Y"}));

TEST(SingleMappingTest, CompleteOnLeftSemiInterval) {
  // Both queries left semi-interval: the NP test must agree exactly.
  const std::vector<Case> cases = {
      {"q(X) :- a(X), X < 3", "q(X) :- a(X), X < 5"},
      {"q(X) :- a(X), X < 5", "q(X) :- a(X), X < 3"},
      {"q(X) :- a(X,Y), X <= 3, Y < 2", "q(X) :- a(X,Y), X <= 5"},
      {"q(X) :- a(X,Y), a(Y,X), X < 1", "q(X) :- a(X,Y), X <= 1"},
      {"q(X) :- a(X), X = 3", "q(X) :- a(X), X <= 3"},
  };
  for (const Case& c : cases) {
    const ConjunctiveQuery q1 = Parser::MustParseRule(c.q1);
    const ConjunctiveQuery q2 = Parser::MustParseRule(c.q2);
    ASSERT_TRUE(testing::IsLeftSemiInterval(q1));
    ASSERT_TRUE(testing::IsLeftSemiInterval(q2));
    EXPECT_EQ(testing::CqacContainedSingleMapping(q1, q2),
              CqacContainedCanonical(q1, q2))
        << c.q1 << " vs " << c.q2;
  }
}

TEST(SingleMappingTest, IncompleteInGeneral) {
  // Klug's phenomenon: containment holds but no single mapping works.
  const ConjunctiveQuery q1 =
      Parser::MustParseRule("q() :- p(X,Y), p(Y,X)");
  const ConjunctiveQuery q2 =
      Parser::MustParseRule("q() :- p(U,V), U <= V");
  EXPECT_TRUE(CqacContainedCanonical(q1, q2));
  EXPECT_FALSE(testing::CqacContainedSingleMapping(q1, q2));
}

TEST(IsLeftSemiIntervalTest, Classification) {
  EXPECT_TRUE(testing::IsLeftSemiInterval(
      Parser::MustParseRule("q(X) :- a(X), X < 3, 5 >= X, X = 1")));
  EXPECT_FALSE(testing::IsLeftSemiInterval(
      Parser::MustParseRule("q(X) :- a(X), X > 3")));
  EXPECT_FALSE(testing::IsLeftSemiInterval(
      Parser::MustParseRule("q(X) :- a(X,Y), X < Y")));
  EXPECT_TRUE(
      testing::IsLeftSemiInterval(Parser::MustParseRule("q(X) :- a(X)")));
}

}  // namespace
}  // namespace cqac

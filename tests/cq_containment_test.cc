#include "containment/cq_containment.h"

#include "engine/canonical.h"
#include "engine/evaluate.h"
#include "gtest/gtest.h"
#include "parser/parser.h"

namespace cqac {
namespace {

TEST(CqContainmentTest, SelfContainment) {
  const ConjunctiveQuery q = Parser::MustParseRule("q(X) :- a(X,Y), b(Y)");
  EXPECT_TRUE(CqContained(q, q));
}

TEST(CqContainmentTest, SpecializationIsContained) {
  const ConjunctiveQuery special = Parser::MustParseRule("q(X) :- a(X,X)");
  const ConjunctiveQuery general = Parser::MustParseRule("q(X) :- a(X,Y)");
  EXPECT_TRUE(CqContained(special, general));
  EXPECT_FALSE(CqContained(general, special));
}

TEST(CqContainmentTest, MoreSubgoalsMeansContained) {
  const ConjunctiveQuery longer =
      Parser::MustParseRule("q(X) :- a(X,Y), a(Y,Z)");
  const ConjunctiveQuery shorter = Parser::MustParseRule("q(X) :- a(X,Y)");
  EXPECT_TRUE(CqContained(longer, shorter));
  EXPECT_FALSE(CqContained(shorter, longer));
}

TEST(CqContainmentTest, PathFoldsOntoShorterPathViaCycle) {
  // Classic: a length-2 path query contains the query asking for a self
  // loop; mapping collapses variables.
  const ConjunctiveQuery loop = Parser::MustParseRule("q() :- a(X,X)");
  const ConjunctiveQuery path = Parser::MustParseRule("q() :- a(U,V)");
  EXPECT_TRUE(CqContained(loop, path));
  EXPECT_FALSE(CqContained(path, loop));
}

TEST(CqContainmentTest, ConstantsBlockContainment) {
  const ConjunctiveQuery with_const = Parser::MustParseRule("q() :- a(3,Y)");
  const ConjunctiveQuery general = Parser::MustParseRule("q() :- a(X,Y)");
  EXPECT_TRUE(CqContained(with_const, general));
  EXPECT_FALSE(CqContained(general, with_const));
}

TEST(CqContainmentTest, RejectsQueriesWithComparisons) {
  const ConjunctiveQuery q1 = Parser::MustParseRule("q(X) :- a(X), X < 3");
  const ConjunctiveQuery q2 = Parser::MustParseRule("q(X) :- a(X)");
  EXPECT_FALSE(CqContained(q1, q2));
}

TEST(CqContainmentTest, EquivalentUpToRedundantSubgoal) {
  const ConjunctiveQuery redundant =
      Parser::MustParseRule("q(X) :- a(X,Y), a(X,Z)");
  const ConjunctiveQuery minimal = Parser::MustParseRule("q(X) :- a(X,Y)");
  EXPECT_TRUE(CqContained(redundant, minimal));
  EXPECT_TRUE(CqContained(minimal, redundant));
}

TEST(CqMinimizeTest, DropsRedundantSubgoal) {
  const ConjunctiveQuery redundant =
      Parser::MustParseRule("q(X) :- a(X,Y), a(X,Z)");
  const ConjunctiveQuery minimized = CqMinimize(redundant);
  EXPECT_EQ(minimized.body().size(), 1u);
  EXPECT_TRUE(CqContained(minimized, redundant));
  EXPECT_TRUE(CqContained(redundant, minimized));
}

TEST(CqMinimizeTest, KeepsCore) {
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X,Z) :- a(X,Y), a(Y,Z)");
  EXPECT_EQ(CqMinimize(q).body().size(), 2u);
}

TEST(CqMinimizeTest, DropsDuplicates) {
  const ConjunctiveQuery q = Parser::MustParseRule("q(X) :- a(X), a(X)");
  EXPECT_EQ(CqMinimize(q).body().size(), 1u);
}

TEST(CqMinimizeTest, CollapsesLongRedundantPath) {
  // A path of length 3 with a loop shortcut: q() :- a(X,Y),a(Y,Z),a(Z,W)
  // is minimal; but with all variables free to fold onto a(U,U) when a
  // self loop subgoal exists, the path is redundant.
  const ConjunctiveQuery q =
      Parser::MustParseRule("q() :- a(U,U), a(X,Y), a(Y,Z)");
  const ConjunctiveQuery minimized = CqMinimize(q);
  EXPECT_EQ(minimized.body().size(), 1u);
  EXPECT_EQ(minimized.body()[0].ToString(), "a(U,U)");
}

TEST(CqMinimizeTest, HeadVariablesAnchorSubgoals) {
  // Same shape as above, but head variables prevent folding the path onto
  // the self loop (X and Z are anchored), and the self loop cannot fold
  // into the path either: the query is already minimal.
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X,Z) :- a(U,U), a(X,Y), a(Y,Z)");
  const ConjunctiveQuery minimized = CqMinimize(q);
  EXPECT_EQ(minimized.body().size(), 3u);
}

// Property: containment verdicts agree with evaluation on the canonical
// database of the would-be contained query (the classical proof skeleton).
class CqContainmentProperty
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(CqContainmentProperty, VerdictMatchesCanonicalEvaluation) {
  const ConjunctiveQuery q1 = Parser::MustParseRule(GetParam().first);
  const ConjunctiveQuery q2 = Parser::MustParseRule(GetParam().second);
  const bool contained = CqContained(q1, q2);
  const CanonicalDatabase cdb = FreezeQueryDistinct(q1);
  const bool canonical_ok = ComputesTuple(q2, cdb.db, cdb.frozen_head);
  EXPECT_EQ(contained, canonical_ok)
      << q1.ToString() << "  vs  " << q2.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CqContainmentProperty,
    ::testing::Values(
        std::make_pair("q(X) :- a(X,Y)", "q(X) :- a(X,Y)"),
        std::make_pair("q(X) :- a(X,X)", "q(X) :- a(X,Y)"),
        std::make_pair("q(X) :- a(X,Y)", "q(X) :- a(X,X)"),
        std::make_pair("q() :- a(X,Y), a(Y,Z)", "q() :- a(U,V)"),
        std::make_pair("q() :- a(U,V)", "q() :- a(X,Y), a(Y,Z)"),
        std::make_pair("q(X) :- a(X,3)", "q(X) :- a(X,Y)"),
        std::make_pair("q(X) :- a(X,Y)", "q(X) :- a(X,3)"),
        std::make_pair("q() :- a(X,Y), b(Y)", "q() :- a(X,Y)"),
        std::make_pair("q() :- a(X,Y)", "q() :- a(X,Y), b(Y)"),
        std::make_pair("q(X,Y) :- a(X,Y)", "q(X,Y) :- a(Y,X)")));

}  // namespace
}  // namespace cqac

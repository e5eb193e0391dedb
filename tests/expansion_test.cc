#include "rewriting/expansion.h"

#include "containment/cqac_containment.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "parser/parser.h"

namespace cqac {
namespace {

ViewSet Views(const std::string& program) {
  return ViewSet(Parser::MustParseProgram(program));
}

TEST(ExpansionTest, SingleViewSubgoal) {
  const ViewSet views = Views("v(T,U) :- a(T,W), b(W,U)");
  const ConjunctiveQuery rewriting = Parser::MustParseRule("q(X,Y) :- v(X,Y)");
  const ConjunctiveQuery expansion = Expand(rewriting, views);
  EXPECT_EQ(expansion.body().size(), 2u);
  EXPECT_EQ(expansion.body()[0].predicate(), "a");
  EXPECT_EQ(expansion.body()[0].args()[0], Term::Variable("X"));
  EXPECT_EQ(expansion.body()[1].args()[1], Term::Variable("Y"));
  // The view's existential W became a fresh variable shared by both atoms.
  EXPECT_EQ(expansion.body()[0].args()[1], expansion.body()[1].args()[0]);
  EXPECT_NE(expansion.body()[0].args()[1], Term::Variable("W"));
}

TEST(ExpansionTest, ViewComparisonsCarriedOver) {
  const ViewSet views = Views("v(T) :- a(T,S), T <= S, S < 9");
  const ConjunctiveQuery expansion =
      Expand(Parser::MustParseRule("q(X) :- v(X)"), views);
  ASSERT_EQ(expansion.comparisons().size(), 2u);
  EXPECT_EQ(expansion.comparisons()[0].lhs(), Term::Variable("X"));
}

TEST(ExpansionTest, RewritingComparisonsKept) {
  const ViewSet views = Views("v(T) :- a(T)");
  const ConjunctiveQuery expansion =
      Expand(Parser::MustParseRule("q(X) :- v(X), X < 7"), views);
  ASSERT_EQ(expansion.comparisons().size(), 1u);
  EXPECT_EQ(expansion.comparisons()[0].ToString(), "X < 7");
}

TEST(ExpansionTest, PaperExample1Expansion) {
  // Q' : q(A,A) :- v1(A,A), A < 7 expands to
  // q(A,A) :- a(S,A), b(A), A <= S, S <= A, A < 7 (up to renaming).
  const ViewSet views = Views("v1(T,U) :- a(S,T), b(U), T <= S, S <= U");
  const ConjunctiveQuery rewriting =
      Parser::MustParseRule("q(A,A) :- v1(A,A), A < 7");
  const ConjunctiveQuery expansion = Expand(rewriting, views);
  const ConjunctiveQuery expected = Parser::MustParseRule(
      "q(A,A) :- a(S,A), b(A), A <= S, S <= A, A < 7");
  EXPECT_TRUE(CqacEquivalent(expansion, expected));
  // And equivalent to the original query Q (the paper's claim).
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X,X) :- a(X,X), b(X), X < 7");
  EXPECT_TRUE(CqacEquivalent(expansion, q));
}

TEST(ExpansionTest, RepeatedViewHeadVariableAddsEquality) {
  // Exported variant with repeated head variable: v(T,T).
  const ViewSet views = Views("v(T,T) :- a(T)");
  const ConjunctiveQuery expansion =
      Expand(Parser::MustParseRule("q(X,Y) :- v(X,Y)"), views);
  ASSERT_EQ(expansion.comparisons().size(), 1u);
  EXPECT_EQ(expansion.comparisons()[0].ToString(), "X = Y");
  EXPECT_EQ(expansion.body()[0].ToString(), "a(X)");
}

TEST(ExpansionTest, ConstantInViewHeadAddsEquality) {
  const ViewSet views = Views("v(3,T) :- a(T)");
  const ConjunctiveQuery expansion =
      Expand(Parser::MustParseRule("q(X,Y) :- v(X,Y)"), views);
  ASSERT_EQ(expansion.comparisons().size(), 1u);
  EXPECT_EQ(expansion.comparisons()[0].ToString(), "X = 3");
}

TEST(ExpansionTest, ConstantArgumentInRewriting) {
  const ViewSet views = Views("v(T,U) :- a(T,U)");
  const ConjunctiveQuery expansion =
      Expand(Parser::MustParseRule("q(X) :- v(X,5)"), views);
  EXPECT_EQ(expansion.body()[0].ToString(), "a(X,5)");
}

TEST(ExpansionTest, BaseRelationsPassThrough) {
  const ViewSet views = Views("v(T) :- a(T)");
  const ConjunctiveQuery expansion =
      Expand(Parser::MustParseRule("q(X) :- v(X), c(X)"), views);
  EXPECT_EQ(expansion.body().size(), 2u);
  EXPECT_EQ(expansion.body()[1].predicate(), "c");
}

TEST(ExpansionTest, TwoSubgoalsGetDisjointFreshVariables) {
  const ViewSet views = Views("v(T) :- a(T,W)");
  const ConjunctiveQuery expansion =
      Expand(Parser::MustParseRule("q(X,Y) :- v(X), v(Y)"), views);
  ASSERT_EQ(expansion.body().size(), 2u);
  EXPECT_NE(expansion.body()[0].args()[1], expansion.body()[1].args()[1]);
}

TEST(ExpansionTest, FreshNamesFollowTheViewsVariableOrder) {
  // Head variables take the subgoal's arguments; the i-th other variable
  // of the k-th view subgoal becomes _e<k>_<i>.  Recorded at c923873.
  const ViewSet views = Views(
      "v(T,T,3) :- a(T,S), b(S,R), S < R.\n"
      "w(A) :- c(A,B).");
  const ConjunctiveQuery expansion = Expand(
      Parser::MustParseRule("q(X,Y) :- v(X,Y,Z), w(Y), v(Y,Y,3), c(X,X)"),
      views);
  EXPECT_EQ(expansion.ToString(),
            "q(X,Y) :- a(X,_e0_1), b(_e0_1,_e0_2), c(Y,_e1_1), a(Y,_e2_1), "
            "b(_e2_1,_e2_2), c(X,X), X = Y, Z = 3, _e0_1 < _e0_2, "
            "_e2_1 < _e2_2");
}

TEST(ExpansionTest, UnionExpansion) {
  const ViewSet views = Views(
      "v1() :- p(X), X = 0.\n"
      "v2() :- p(X), X > 0.");
  const UnionQuery rewriting = Parser::MustParseUnion(
      "r0() :- v1().\n"
      "r0() :- v2().");
  const UnionQuery expanded = Expand(rewriting, views);
  ASSERT_EQ(expanded.size(), 2);
  EXPECT_EQ(expanded.disjuncts()[0].body()[0].predicate(), "p");
  EXPECT_EQ(expanded.disjuncts()[1].comparisons()[0].op(), CompOp::kGt);
}

TEST(SimplifyQueryTest, PaperExample8Simplification) {
  // PR1(A) :- r(X), s(A,A), A < 8, A <= X, X <= A simplifies to
  // PR1(A) :- r(A), s(A,A), A < 8.
  const ConjunctiveQuery raw = Parser::MustParseRule(
      "pr1(A) :- r(X), s(A,A), A < 8, A <= X, X <= A");
  const std::optional<ConjunctiveQuery> simplified = SimplifyQuery(raw);
  ASSERT_TRUE(simplified.has_value());
  const ConjunctiveQuery expected =
      Parser::MustParseRule("pr1(A) :- r(A), s(A,A), A < 8");
  EXPECT_EQ(simplified->ToString(), expected.ToString());
}

TEST(SimplifyQueryTest, UnsatisfiableReturnsNullopt) {
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X) :- a(X), X < 1, X > 2");
  EXPECT_FALSE(SimplifyQuery(q).has_value());
}

TEST(SimplifyQueryTest, RemovesImpliedComparisons) {
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X) :- a(X,Y), X < Y, Y < 3, X < 3");
  const std::optional<ConjunctiveQuery> s = SimplifyQuery(q);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->comparisons().size(), 2u);
}

TEST(SimplifyQueryTest, CollapsesConstantEqualities) {
  const ConjunctiveQuery q = Parser::MustParseRule("q(X) :- a(X,Y), Y = 4");
  const std::optional<ConjunctiveQuery> s = SimplifyQuery(q);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->ToString(), "q(X) :- a(X,4)");
}

TEST(SimplifyQueryTest, PreservesEquivalence) {
  const ConjunctiveQuery q = Parser::MustParseRule(
      "q(A) :- r(X), s(A,B), A <= X, X <= A, B >= A, A >= B, A < 8");
  const std::optional<ConjunctiveQuery> s = SimplifyQuery(q);
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(CqacEquivalent(q, *s));
}

TEST(SimplifyQueryTest, DeduplicatesSubgoals) {
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(A) :- r(A), r(B), A <= B, B <= A");
  const std::optional<ConjunctiveQuery> s = SimplifyQuery(q);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->body().size(), 1u);
}

// Folds that no single-variable fold reaches, only the budgeted search
// for a homomorphism into the body minus one atom.  Expected outputs and
// counter deltas were recorded at c923873.
class FoldSearchTest : public ::testing::Test {
 protected:
  struct Run {
    std::string simplified;
    std::string folded;  // FoldExistentialVariables
    int64_t single_folds = 0;
    int64_t leaf_checks = 0;
  };

  static Run Simplify(const std::string& rule) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    obs::Counter& single = registry.counter("simplify.single_folds");
    obs::Counter& leaf = registry.counter("simplify.search_leaf_checks");
    const int64_t single_before = single.value();
    const int64_t leaf_before = leaf.value();
    const ConjunctiveQuery q = Parser::MustParseRule(rule);
    const std::optional<ConjunctiveQuery> simplified = SimplifyQuery(q);
    Run run;
    run.simplified = simplified.has_value() ? simplified->ToString() : "unsat";
    run.single_folds = single.value() - single_before;
    run.leaf_checks = leaf.value() - leaf_before;
    run.folded = FoldExistentialVariables(q).ToString();
    return run;
  }
};

TEST_F(FoldSearchTest, TwoAtomFold) {
  // Y -> W alone would need e(W,Z), W -> Y alone e(Y,V); only the pair
  // {Y -> W, Z -> V} maps the body into itself minus e(X,Y).
  const Run run = Simplify("q(X) :- e(X,Y), e(Y,Z), e(X,W), e(W,V)");
  EXPECT_EQ(run.simplified, "q(X) :- e(X,W), e(W,V)");
  EXPECT_EQ(run.folded, "q(X) :- e(X,W), e(W,V)");
  EXPECT_EQ(run.single_folds, 0);
  EXPECT_EQ(run.leaf_checks, 0);
}

TEST_F(FoldSearchTest, LeafCheckKeepsTheComparedBranch) {
  // The fold onto W's branch maps W < 5 to itself: one leaf check passes.
  const Run run = Simplify("q(X) :- e(X,Y), e(Y,Z), e(X,W), e(W,V), W < 5");
  EXPECT_EQ(run.simplified, "q(X) :- e(X,W), e(W,V), W < 5");
  EXPECT_EQ(run.folded, "q(X) :- e(X,W), e(W,V), W < 5");
  EXPECT_EQ(run.single_folds, 0);
  EXPECT_EQ(run.leaf_checks, 1);
}

TEST_F(FoldSearchTest, FailedLeafImplicationKeepsEveryAtom) {
  // Each direction maps a comparison to one the query does not imply
  // (W < 5 to Y < 5, or Y > 5 to W > 5): the leaves reject every fold.
  const std::string rule =
      "q(X) :- e(X,Y), e(Y,Z), e(X,W), e(W,V), W < 5, Y > 5";
  const Run run = Simplify(rule);
  EXPECT_EQ(run.simplified, rule);
  EXPECT_EQ(run.folded, rule);
  EXPECT_EQ(run.single_folds, 0);
  EXPECT_EQ(run.leaf_checks, 6);
}

TEST_F(FoldSearchTest, TargetsAreTriedInBodyOrder) {
  // Three isomorphic branches: which one survives, and how many leaves the
  // search reaches on the way, depend on the order targets are tried in.
  const Run run = Simplify(
      "q(X) :- e(X,Y), e(Y,Z), e(X,W), e(W,V), e(X,U), e(U,T), "
      "Y < 3, W < 4, U < 5");
  EXPECT_EQ(run.simplified, "q(X) :- e(X,Y), e(Y,Z), Y < 3");
  EXPECT_EQ(run.leaf_checks, 19);
  EXPECT_EQ(Simplify("q(X) :- e(X,Y), e(Y,Z), e(X,W), e(W,V), e(X,U), "
                     "e(U,T)")
                .simplified,
            "q(X) :- e(X,W), e(W,V)");
}

TEST_F(FoldSearchTest, TiesGoToTheLowestIndex) {
  // Which of the equally bound atoms the search maps first shows only in
  // the number of leaves it reaches.
  const Run run = Simplify("q(X) :- e(X,B), e(D,C), e(F,A), D != 5");
  EXPECT_EQ(run.simplified, "q(X) :- e(X,B), e(D,C), D != 5");
  EXPECT_EQ(run.leaf_checks, 8);
}

TEST_F(FoldSearchTest, BodyConstantsMustMatch) {
  const Run same =
      Simplify("q(X) :- e(X,Y), e(Y,Z), f(Z,3), e(X,W), e(W,V), f(V,3)");
  EXPECT_EQ(same.simplified, "q(X) :- e(X,W), e(W,V), f(V,3)");
  EXPECT_EQ(same.folded, "q(X) :- e(X,W), e(W,V), f(V,3)");
  EXPECT_EQ(same.single_folds, 0);

  const std::string rule =
      "q(X) :- e(X,Y), e(Y,Z), f(Z,3), e(X,W), e(W,V), f(V,4)";
  const Run different = Simplify(rule);
  EXPECT_EQ(different.simplified, rule);
  EXPECT_EQ(different.folded, rule);
  EXPECT_EQ(different.leaf_checks, 0);
}

}  // namespace
}  // namespace cqac

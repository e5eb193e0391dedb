// Tests for FoldExistentialVariables: the comparison-aware minimization
// that keeps Phase 2's canonical enumeration small.

#include <string>

#include "containment/cqac_containment.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "parser/parser.h"
#include "rewriting/expansion.h"

namespace cqac {
namespace {

ConjunctiveQuery Fold(const std::string& rule) {
  return FoldExistentialVariables(Parser::MustParseRule(rule));
}

TEST(FoldTest, PlainRedundantSubgoalFolds) {
  const ConjunctiveQuery folded = Fold("q(X) :- a(X,Y), a(X,Z)");
  EXPECT_EQ(folded.body().size(), 1u);
}

TEST(FoldTest, HeadVariablesAreFixed) {
  // Both Y and Z are distinguished: nothing can fold.
  const ConjunctiveQuery folded = Fold("q(X,Y,Z) :- a(X,Y), a(X,Z)");
  EXPECT_EQ(folded.body().size(), 2u);
}

TEST(FoldTest, WeakerComparisonFoldsOntoStronger) {
  // Z's constraint (Z < 5) is implied by Y's (Y < 3), so the Z-witness
  // can always be the Y-witness: a(X,Z) folds away and Z < 5 with it.
  const ConjunctiveQuery folded =
      Fold("q(X) :- a(X,Y), a(X,Z), Y < 3, Z < 5");
  EXPECT_EQ(folded.body().size(), 1u);
  ASSERT_EQ(folded.comparisons().size(), 1u);
  EXPECT_EQ(folded.comparisons()[0].ToString(), "Y < 3");
}

TEST(FoldTest, IncomparableConstraintsBlockTheFold) {
  // Y < 3 and Z > 5 demand genuinely different witnesses.
  const ConjunctiveQuery folded =
      Fold("q(X) :- a(X,Y), a(X,Z), Y < 3, Z > 5");
  EXPECT_EQ(folded.body().size(), 2u);
  EXPECT_EQ(folded.comparisons().size(), 2u);
}

TEST(FoldTest, ImpliedComparisonAllowsFold) {
  // Z's constraint is implied by Y's: a(X,Z) folds onto a(X,Y).
  const ConjunctiveQuery folded =
      Fold("q(X) :- a(X,Y), a(X,Z), Y < 3, Z < 3");
  EXPECT_EQ(folded.body().size(), 1u);
  ASSERT_EQ(folded.comparisons().size(), 1u);
}

TEST(FoldTest, ChainMergesAcrossMultipleVariables) {
  // Two parallel chains with identical endpoints and compatible
  // comparisons merge into one (the Example 4 expansion pattern).
  const ConjunctiveQuery folded = Fold(
      "q(X,Y) :- a(X,A1), b(A1,Y), a(X,B1), b(B1,Y), A1 < 5, B1 < 5");
  EXPECT_EQ(folded.body().size(), 2u);
  EXPECT_EQ(folded.comparisons().size(), 1u);
}

TEST(FoldTest, DivergentChainsDoNotMerge) {
  const ConjunctiveQuery folded = Fold(
      "q(X,Y) :- a(X,A1), b(A1,Y), a(X,B1), c(B1,Y)");
  EXPECT_EQ(folded.body().size(), 4u);
}

TEST(FoldTest, PreservesEquivalence) {
  const std::vector<const char*> cases = {
      "q(X) :- a(X,Y), a(X,Z), Y < 3, Z < 3",
      "q(X,Y) :- a(X,A1), b(A1,Y), a(X,B1), b(B1,Y), A1 < 5, B1 <= 9",
      "q() :- p(U,V), p(V,U), p(U,U)",
      "q(X) :- a(X,Y), a(Y,Z), a(Z,W)",
  };
  for (const char* text : cases) {
    const ConjunctiveQuery q = Parser::MustParseRule(text);
    const ConjunctiveQuery folded = FoldExistentialVariables(q);
    EXPECT_TRUE(CqacEquivalent(q, folded)) << text << "\n  folded to "
                                           << folded.ToString();
  }
}

TEST(FoldTest, SelfLoopAbsorbsFoldablePath) {
  // With no head variables anchoring it, the whole walk folds onto the
  // self loop.
  const ConjunctiveQuery folded = Fold("q() :- p(U,U), p(U,V), p(V,W)");
  EXPECT_EQ(folded.body().size(), 1u);
  EXPECT_EQ(folded.body()[0].ToString(), "p(U,U)");
}

TEST(FoldTest, ConstantsAnchorAtoms) {
  const ConjunctiveQuery folded = Fold("q() :- a(3,Y), a(4,Z)");
  EXPECT_EQ(folded.body().size(), 2u);
}

TEST(FoldTest, FoldOntoConstantWhenImplied) {
  // Z is pinned to 3 by the comparisons; a(X,Z) folds onto a(X,3).
  const ConjunctiveQuery folded =
      Fold("q(X) :- a(X,3), a(X,Z), Z = 3");
  EXPECT_EQ(folded.body().size(), 1u);
}

TEST(FoldTest, SingleAtomUntouched) {
  const ConjunctiveQuery folded = Fold("q(X) :- a(X,Y), X < Y");
  EXPECT_EQ(folded.body().size(), 1u);
  EXPECT_EQ(folded.comparisons().size(), 1u);
}

TEST(FoldTest, EmptyComparisonAfterRedundancyRemoval) {
  const ConjunctiveQuery folded =
      Fold("q(X) :- a(X,Y), a(X,Z), 1 < 2");
  EXPECT_EQ(folded.body().size(), 1u);
  EXPECT_TRUE(folded.comparisons().empty());
}

// The fold search is bounded; a search that runs out of budget keeps the
// query unfolded and is counted in simplify.fold_budget_exhausted.  The
// complete directed graph on six vertices is a core (no fold exists) whose
// search space of vertex permutations outgrows the budget for every
// victim atom; a foldable query never touches the counter.
TEST(FoldTest, BudgetExhaustionIsCounted) {
  obs::Counter& exhausted = obs::MetricsRegistry::Global().counter(
      "simplify.fold_budget_exhausted");
  std::string k6 = "q() :- ";
  for (int i = 1; i <= 6; ++i) {
    for (int j = 1; j <= 6; ++j) {
      if (i == j) continue;
      if (k6.back() == ')') k6 += ", ";
      k6 += "e(X" + std::to_string(i) + ",X" + std::to_string(j) + ")";
    }
  }
  int64_t before = exhausted.value();
  EXPECT_EQ(Fold(k6).body().size(), 30u);
  EXPECT_GT(exhausted.value(), before);
  EXPECT_NE(obs::PrometheusText(obs::MetricsRegistry::Global())
                .find("cqac_simplify_fold_budget_exhausted_total "),
            std::string::npos);

  before = exhausted.value();
  EXPECT_EQ(Fold("q(X) :- a(X,Y), a(X,Z)").body().size(), 1u);
  EXPECT_EQ(exhausted.value(), before);
}

}  // namespace
}  // namespace cqac

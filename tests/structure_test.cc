// Unit tests for the structural tier classifier, the forced-tier
// resolution, and the join-tree engine's parity with the general
// evaluator (rewriting/structure.h, engine/jointree.h).  Every classifier
// boundary the acyclic tier depends on gets a case: a comparison on the
// query or a view, a cycle-closing atom, self-joins, and unsatisfiable
// comparisons.

#include "rewriting/structure.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ast/hypergraph.h"
#include "constraints/orders.h"
#include "engine/canonical.h"
#include "engine/evaluate.h"
#include "engine/jointree.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "rewriting/view_set.h"

namespace cqac {
namespace {

ViewSet Views(std::initializer_list<const char*> rules) {
  ViewSet views;
  for (const char* r : rules) views.Add(Parser::MustParseRule(r));
  return views;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------------
// ClassifyStructure boundaries.

TEST(ClassifyStructureTest, SemiIntervalComparisonsRouteToTier0) {
  const TierDecision d = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), X < 5, Y > 2"),
      Views({"v0(A,B) :- p(A,B), A < 5"}));
  EXPECT_EQ(d.tier, ExecutionTier::kGeneral);
  EXPECT_FALSE(d.acyclic_eligible);  // comparisons block the acyclic tier
  // The query's first comparison is named as the blocker.
  EXPECT_TRUE(Contains(d.reason, "X < 5")) << d.reason;
  EXPECT_TRUE(Contains(d.reason, "on the query")) << d.reason;
}

TEST(ClassifyStructureTest, ComparisonFreeAcyclicRoutesToTier2) {
  const TierDecision d = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), r(Y)"),
      Views({"v0(A,B) :- p(A,B)", "v1(B) :- r(B)"}));
  EXPECT_EQ(d.tier, ExecutionTier::kAcyclic);
  EXPECT_TRUE(d.acyclic_eligible);
  EXPECT_TRUE(Contains(d.reason, "GYO-acyclic")) << d.reason;
}

TEST(ClassifyStructureTest, CycleClosingAtomFallsBackToTier0) {
  // The triangle-closing p(Z,X) is the only difference from an acyclic
  // chain.
  const TierDecision d = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), p(Y,Z), p(Z,X)"),
      Views({"v0(A,B) :- p(A,B)"}));
  EXPECT_EQ(d.tier, ExecutionTier::kGeneral);
  EXPECT_FALSE(d.acyclic_eligible);
  EXPECT_TRUE(Contains(d.reason, "cyclic")) << d.reason;
}

TEST(ClassifyStructureTest, SelfJoinStaysTier2) {
  // a(X,Y), a(Y,X) is a repeated hyperedge {X,Y}: still GYO-acyclic.
  const TierDecision d = ClassifyStructure(
      Parser::MustParseRule("q(X) :- a(X,Y), a(Y,X)"),
      Views({"v0(A,B) :- a(A,B)"}));
  EXPECT_EQ(d.tier, ExecutionTier::kAcyclic);
  EXPECT_TRUE(d.acyclic_eligible);
}

TEST(ClassifyStructureTest, ViewComparisonBlocksTier2) {
  // The query is comparison-free and acyclic, but a view carries a
  // comparison: T2 requires comparison-free views.
  const TierDecision d = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), r(Y)"),
      Views({"v0(A,B) :- p(A,B), A < 5", "v1(B) :- r(B)"}));
  EXPECT_EQ(d.tier, ExecutionTier::kGeneral);
  EXPECT_FALSE(d.acyclic_eligible);
  EXPECT_TRUE(Contains(d.reason, "A < 5")) << d.reason;
  EXPECT_TRUE(Contains(d.reason, "on a view")) << d.reason;
}

// ---------------------------------------------------------------------------
// ResolveTier: forcing honors eligibility, never overrides it.

TEST(ResolveTierTest, AutoPassesClassificationThrough) {
  const TierDecision classified = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), r(Y)"),
      Views({"v0(A,B) :- p(A,B)"}));
  const TierDecision d = ResolveTier(classified, -1);
  EXPECT_EQ(d.tier, classified.tier);
  EXPECT_EQ(d.reason, classified.reason);
}

TEST(ResolveTierTest, ForcedGeneralAlwaysApplies) {
  const TierDecision classified = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), r(Y)"),
      Views({"v0(A,B) :- p(A,B)"}));
  const TierDecision d = ResolveTier(classified, 0);
  EXPECT_EQ(d.tier, ExecutionTier::kGeneral);
  EXPECT_TRUE(Contains(d.reason, "forced tier0")) << d.reason;
  // Eligibility is reported unchanged: forcing routes, it does not
  // reclassify.
  EXPECT_TRUE(d.acyclic_eligible);
}

TEST(ResolveTierTest, ForcedTierHonoredWhenEligible) {
  const TierDecision acyclic = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), r(Y)"),
      Views({"v0(A,B) :- p(A,B)"}));
  EXPECT_EQ(ResolveTier(acyclic, 2).tier, ExecutionTier::kAcyclic);
}

TEST(ResolveTierTest, IneligibleForcedTierFallsBackToGeneral) {
  const TierDecision classified = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), X < Y"),
      Views({"v0(A,B) :- p(A,B)"}));
  const TierDecision d = ResolveTier(classified, 2);
  EXPECT_EQ(d.tier, ExecutionTier::kGeneral);
  EXPECT_TRUE(Contains(d.reason, "falling back")) << d.reason;
  EXPECT_TRUE(Contains(d.reason, "X < Y")) << d.reason;

  const TierDecision cyclic = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), p(Y,Z), p(Z,X)"),
      Views({"v0(A,B) :- p(A,B)"}));
  EXPECT_EQ(ResolveTier(cyclic, 2).tier, ExecutionTier::kGeneral);
}

TEST(ResolveTierTest, UnknownForcedTierFallsBackToGeneral) {
  // Tier 1 no longer exists; forcing it is an unknown tier like any other.
  const TierDecision classified = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), r(Y)"),
      Views({"v0(A,B) :- p(A,B)"}));
  const TierDecision d = ResolveTier(classified, 1);
  EXPECT_EQ(d.tier, ExecutionTier::kGeneral);
  EXPECT_TRUE(Contains(d.reason, "unknown forced tier 1")) << d.reason;
}

// ---------------------------------------------------------------------------
// GyoJoinForest: children are eliminated before their parents.

TEST(GyoJoinForestTest, ChainForestIsConsistent) {
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X,W) :- a(X,Y), b(Y,Z), c(Z,W)");
  const JoinForest forest = GyoJoinForest(q);
  ASSERT_EQ(forest.elimination_order.size(), 3u);
  ASSERT_EQ(forest.parent.size(), 3u);
  std::vector<int> removed_at(3, -1);
  for (int i = 0; i < 3; ++i) removed_at[forest.elimination_order[i]] = i;
  for (int atom = 0; atom < 3; ++atom) {
    const int parent = forest.parent[atom];
    ASSERT_GE(parent, -1);
    ASSERT_LT(parent, 3);
    if (parent != -1) {
      EXPECT_LT(removed_at[atom], removed_at[parent])
          << "atom " << atom << " must be eliminated before its parent";
    }
  }
}

TEST(GyoJoinForestTest, CyclicQueryYieldsNoForest) {
  const JoinForest forest =
      GyoJoinForest(Parser::MustParseRule("q() :- a(X,Y), b(Y,Z), c(Z,X)"));
  EXPECT_TRUE(forest.elimination_order.empty());
}

TEST(GyoJoinForestTest, DisconnectedComponentsYieldMultipleRoots) {
  const JoinForest forest =
      GyoJoinForest(Parser::MustParseRule("q() :- a(X,Y), b(Z,W)"));
  ASSERT_EQ(forest.parent.size(), 2u);
  EXPECT_EQ(forest.parent[0], -1);
  EXPECT_EQ(forest.parent[1], -1);
}

// ---------------------------------------------------------------------------
// AcyclicPlan parity: the join-tree engine agrees with the general
// evaluator on every canonical database.

void ExpectPlanMatchesPrepared(const char* base_rule, const char* probe_rule) {
  const ConjunctiveQuery base = Parser::MustParseRule(base_rule);
  const ConjunctiveQuery probe = Parser::MustParseRule(probe_rule);
  const std::optional<AcyclicPlan> plan = AcyclicPlanFor(probe);
  ASSERT_TRUE(plan.has_value()) << probe_rule;

  CanonicalFreezer freezer(base);
  const PreparedQuery prepared(probe);
  PreparedQuery::Scratch scratch;
  AcyclicPlan::Scratch jointree_scratch;
  const std::vector<Rational> constants = base.Constants();

  int orders = 0;
  ForEachTotalOrder(base.AllVariables(), constants, [&](const TotalOrder& o) {
    const FlatInstance& inst = freezer.Freeze(o);
    const bool general =
        prepared.Run(inst, &freezer.frozen_head(), nullptr, &scratch);
    const bool jointree =
        plan->Run(inst, freezer.frozen_head(), &jointree_scratch);
    EXPECT_EQ(general, jointree)
        << "base " << base_rule << "\nprobe " << probe_rule << "\norder "
        << o.ToString();
    return ++orders < 600;
  });
  EXPECT_GT(orders, 0);
}

TEST(AcyclicPlanTest, MatchesGeneralEvaluatorOnSelfCheck) {
  ExpectPlanMatchesPrepared("q(X) :- p(X,Y), r(Y)", "q(X) :- p(X,Y), r(Y)");
}

TEST(AcyclicPlanTest, MatchesGeneralEvaluatorAcrossQueries) {
  ExpectPlanMatchesPrepared("q(X) :- p(X,Y), r(Y)", "q(X) :- p(X,X)");
  ExpectPlanMatchesPrepared("q(X) :- p(X,Y), p(Y,Z)",
                            "q(X) :- p(X,Y), p(X,Z)");
  ExpectPlanMatchesPrepared("q(X) :- p(X,Y), p(Y,X)",
                            "q(X) :- p(X,Y), p(Y,X)");
}

TEST(AcyclicPlanTest, RefusesCyclicAndComparisonQueries) {
  EXPECT_FALSE(
      AcyclicPlanFor(Parser::MustParseRule("q() :- a(X,Y), b(Y,Z), c(Z,X)"))
          .has_value());
  EXPECT_FALSE(
      AcyclicPlanFor(Parser::MustParseRule("q(X) :- a(X,Y), X < 5"))
          .has_value());
}

// ---------------------------------------------------------------------------
// End-to-end: the rewriter reports the routed tier and its counters, and
// forced tiers return the identical rewriting.

RewriteResult RunWithForcedTier(const char* query, ViewSet views, int tier) {
  RewriteOptions options;
  options.force_tier = tier;
  EquivalentRewriter rewriter(Parser::MustParseRule(query), std::move(views),
                              options);
  return rewriter.Run();
}

TEST(TieredRewriteTest, SemiIntervalCaseRunsOnTheGeneralPath) {
  const char* query = "q(A) :- p(A,B), A <= 5";
  const RewriteResult general =
      RunWithForcedTier(query, Views({"v0(A,B) :- p(A,B), A <= 5"}), 0);
  const RewriteResult routed =
      RunWithForcedTier(query, Views({"v0(A,B) :- p(A,B), A <= 5"}), -1);
  EXPECT_EQ(routed.tier, 0);
  EXPECT_EQ(routed.outcome, general.outcome);
  EXPECT_EQ(routed.rewriting.ToString(), general.rewriting.ToString());
  EXPECT_EQ(routed.stats.tier2_jointree_evals, 0);
}

TEST(TieredRewriteTest, AcyclicCaseRoutesToTier2AndMatchesGeneral) {
  const char* query = "q(A) :- p(A,B), r(B)";
  const auto views = [] {
    return Views({"v0(A,B) :- p(A,B)", "v1(B) :- r(B)"});
  };
  const RewriteResult general = RunWithForcedTier(query, views(), 0);
  const RewriteResult routed = RunWithForcedTier(query, views(), -1);
  EXPECT_EQ(routed.tier, 2);
  EXPECT_EQ(routed.outcome, general.outcome);
  EXPECT_EQ(routed.rewriting.ToString(), general.rewriting.ToString());
  EXPECT_EQ(routed.stats.kept_canonical_databases,
            general.stats.kept_canonical_databases);
  EXPECT_GT(routed.stats.tier2_jointree_evals, 0);
  EXPECT_EQ(general.stats.tier2_jointree_evals, 0);
}

TEST(TieredRewriteTest, UnsatisfiableComparisonsShortCircuitAsTier0) {
  const RewriteResult result = RunWithForcedTier(
      "q(X) :- p(X,Y), X < 1, X > 2", Views({"v0(A,B) :- p(A,B)"}), -1);
  EXPECT_EQ(result.tier, 0);
  EXPECT_TRUE(Contains(result.tier_reason, "unsatisfiable"))
      << result.tier_reason;
}

}  // namespace
}  // namespace cqac

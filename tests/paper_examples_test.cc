// Regression tests pinning every worked example in the paper, including
// the structural claims of Example 3 (where full CQAC processing of the
// heptagon is out of unit-test range, the comparison-free skeletons are
// checked with the plain-CQ machinery).

#include "containment/cq_containment.h"
#include "containment/cqac_containment.h"
#include "gtest/gtest.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "rewriting/expansion.h"
#include "rewriting/minicon.h"

namespace cqac {
namespace {

// ---- Example 3: the heptagon ----
//
// Q evaluates to true when the database has a closed path of length 7
// whose 2nd vertex exceeds 5 and whose 7th is below 8.  The paper argues
// that (a) for the comparison-free versions, the minimal rewriting is
// r() :- v1'(X,Y), but (b) the rewriting with the "redundant" subgoals
// v2'(Z,X), v3'(Y,Z) is the one that survives once comparisons return.

const char* kHeptagonQ0 =
    "q() :- a(X1,X2), a(X2,X3), a(X3,X4), a(X4,X5), a(X5,X6), a(X6,X7), "
    "a(X7,X1)";
const char* kHeptagonViews0 =
    "v1(X1,X4) :- a(X1,X2), a(X2,X3), a(X3,X4), a(X4,X5), a(X5,X6), "
    "a(X6,X7), a(X7,X1).\n"
    "v2(X3,X5) :- a(X1,X2), a(X2,X3), a(X3,X4), a(X4,X5), a(X5,X6), "
    "a(X6,X7), a(X7,X1).\n"
    "v3(X,Y) :- a(X,X2), a(X2,Y).";

TEST(PaperExample3Test, MinimalCqRewritingIsEquivalent) {
  // R' : r() :- v1'(X,Y) — the CoreCover-style answer for Q0/V0.
  const ConjunctiveQuery q0 = Parser::MustParseRule(kHeptagonQ0);
  const ViewSet views(Parser::MustParseProgram(kHeptagonViews0));
  const ConjunctiveQuery r = Parser::MustParseRule("q() :- v1(X,Y)");
  const ConjunctiveQuery expansion = Expand(r, views);
  EXPECT_TRUE(CqContained(expansion, q0));
  EXPECT_TRUE(CqContained(q0, expansion));
}

TEST(PaperExample3Test, RedundantCqRewritingAlsoEquivalent) {
  // R'' : r() :- v1'(X,Y), v2'(Z,X), v3'(Y,Z) — the paper's Figure 1(b):
  // still equivalent to Q0 despite the redundant subgoals.
  const ConjunctiveQuery q0 = Parser::MustParseRule(kHeptagonQ0);
  const ViewSet views(Parser::MustParseProgram(kHeptagonViews0));
  const ConjunctiveQuery r =
      Parser::MustParseRule("q() :- v1(X,Y), v2(Z,X), v3(Y,Z)");
  const ConjunctiveQuery expansion = Expand(r, views);
  EXPECT_TRUE(CqContained(expansion, q0));
  EXPECT_TRUE(CqContained(q0, expansion));
}

TEST(PaperExample3Test, MiniConCoversTheCycleWithTwoArcs) {
  // MCDs are minimal closures: v1 exposes X1 and X4, so the cycle splits
  // into the arc X1..X4 (3 subgoals) and the arc X4..X1 (4 subgoals),
  // both carried by the tuple v1(X1,X4).  Their disjoint combination
  // covers the whole query — MiniCon's route to the minimal rewriting
  // r() :- v1(X,Y).
  const ConjunctiveQuery q0 = Parser::MustParseRule(kHeptagonQ0);
  const std::vector<ConjunctiveQuery> views =
      Parser::MustParseProgram(kHeptagonViews0);
  const std::vector<Mcd> mcds = FormMcds(q0, views);
  bool short_arc = false;
  bool long_arc = false;
  for (const Mcd& mcd : mcds) {
    if (mcd.view_tuple.predicate() != "v1") continue;
    if (mcd.covered == std::vector<int>{0, 1, 2}) short_arc = true;
    if (mcd.covered == std::vector<int>{3, 4, 5, 6}) long_arc = true;
    // Minimality: no MCD swallows the whole cycle.
    EXPECT_LT(mcd.covered.size(), q0.body().size()) << mcd.ToString();
  }
  EXPECT_TRUE(short_arc);
  EXPECT_TRUE(long_arc);
  EXPECT_TRUE(McdCombinationExists(mcds, 7));
}

TEST(PaperExample3Test, TwoPathViewCoversAdjacentEdges) {
  // v3 exposes both endpoints of a 2-path; its MCDs cover adjacent
  // subgoal pairs of the cycle — the building block of the paper's
  // twisted rewriting.
  const ConjunctiveQuery q0 = Parser::MustParseRule(kHeptagonQ0);
  const std::vector<ConjunctiveQuery> views =
      Parser::MustParseProgram("v3(X,Y) :- a(X,X2), a(X2,Y).");
  const std::vector<Mcd> mcds = FormMcds(q0, views);
  // Seven rotations of the 2-path around the 7-cycle.
  EXPECT_EQ(mcds.size(), 7u);
  for (const Mcd& mcd : mcds) {
    EXPECT_EQ(mcd.covered.size(), 2u);
  }
  // Seven edges cannot be tiled by disjoint 2-paths (odd cycle).
  EXPECT_FALSE(McdCombinationExists(mcds, 7));
}

// ---- Example 7: the Pre-Rewritings of Example 5 ----
TEST(PaperExample7Test, PreRewritingsMatchTheText) {
  RewriteOptions options;
  options.explain = true;
  const RewriteResult result =
      EquivalentRewriter(
          Parser::MustParseRule("q(A) :- r(A), s(A,A), A <= 8"),
          ViewSet(Parser::MustParseProgram(
              "v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z.")),
          options)
          .Run();
  ASSERT_EQ(result.outcome, RewriteOutcome::kRewritingFound);
  // PR1(A) :- v(A,A) [A < 8] and PR2(A) :- v(A,A) [A = 8].
  int prs = 0;
  for (const CanonicalDatabaseTrace& db : result.trace.databases) {
    if (db.pre_rewriting.empty()) continue;
    ++prs;
    EXPECT_NE(db.pre_rewriting.find("v(A,A)"), std::string::npos)
        << db.pre_rewriting;
  }
  EXPECT_EQ(prs, 2);
}

// ---- Example 6: both exported variants usable in rewritings ----
TEST(PaperExample6Test, ExportedVariantsDriveRewritings) {
  // A query that can only be covered through the exported Z1 (the
  // comparison W <= X mirrors what the view's W <= Z1 = X forces).
  const ConjunctiveQuery q = Parser::MustParseRule(
      "q(X,W) :- a(X,X), a(X,Z2), b(Z2,X,W), W <= X");
  const ViewSet views(Parser::MustParseProgram(
      "v(X,Y,W) :- a(X,Z1), a(Z1,Z2), b(Z2,Y,W), X <= Z1, W <= Z1, "
      "Z1 <= Y."));
  RewriteOptions options;
  options.verify = true;
  const RewriteResult result = EquivalentRewriter(q, views, options).Run();
  ASSERT_EQ(result.outcome, RewriteOutcome::kRewritingFound)
      << result.failure_reason;
  EXPECT_TRUE(result.verified);
  // Every disjunct uses v with its first two arguments equated (the
  // paper's V1 variant shape v(X,X,W)).
  for (const ConjunctiveQuery& d : result.rewriting.disjuncts()) {
    bool uses_v1_shape = false;
    for (const Atom& atom : d.body()) {
      if (atom.predicate() == "v" && atom.args()[0] == atom.args()[1]) {
        uses_v1_shape = true;
      }
    }
    EXPECT_TRUE(uses_v1_shape) << d.ToString();
  }
}

}  // namespace
}  // namespace cqac

// Query structure does not choose the engine: acyclic, cyclic,
// comparison-free and semi-interval inputs all run the one pipeline (the
// PreparedQuery keep test and CqacContainedCanonical).  Each case pins
// the rewriting the paper's algorithm produces for one structural shape,
// checks it independently, and checks that the schedule does not change
// it.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ast/hypergraph.h"
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

RewriteResult Rewrite(const char* query, const ViewSet& views, int jobs) {
  RewriteOptions options;
  options.verify = true;
  options.jobs = jobs;
  return EquivalentRewriter(Parser::MustParseRule(query), views, options)
      .Run();
}

/// Runs `query` serially and at jobs=4; both must find `expected`
/// (one disjunct per element), verified, with identical counters.
void ExpectRewriting(const char* query, const ViewSet& views,
                     const std::vector<std::string>& expected) {
  const RewriteResult serial = Rewrite(query, views, 1);
  ASSERT_EQ(serial.outcome, RewriteOutcome::kRewritingFound)
      << serial.failure_reason;
  EXPECT_TRUE(serial.verified);
  std::vector<std::string> disjuncts;
  for (const ConjunctiveQuery& d : serial.rewriting.disjuncts()) {
    disjuncts.push_back(d.ToString());
  }
  EXPECT_EQ(disjuncts, expected);

  const RewriteResult parallel = Rewrite(query, views, 4);
  EXPECT_EQ(parallel.rewriting.ToString(), serial.rewriting.ToString());
  EXPECT_EQ(parallel.stats.canonical_databases,
            serial.stats.canonical_databases);
  EXPECT_EQ(parallel.stats.kept_canonical_databases,
            serial.stats.kept_canonical_databases);
}

TEST(StructureTest, ComparisonFreeAcyclicQuery) {
  const char* query = "q(A) :- p(A,B), r(B)";
  ASSERT_TRUE(IsAcyclic(Parser::MustParseRule(query)));
  ExpectRewriting(query, Views({"v0(A,B) :- p(A,B)", "v1(B) :- r(B)"}),
                  {"q(A) :- v0(A,A), v0(A,B), v1(B), B = A",
                   "q(A) :- v0(A,B), v1(B), B < A",
                   "q(A) :- v0(A,B), v1(B), A < B"});
}

TEST(StructureTest, ComparisonFreeSelfJoin) {
  ExpectRewriting("q(X) :- a(X,Y), a(Y,X)", Views({"v0(A,B) :- a(A,B)"}),
                  {"q(X) :- v0(X,X), v0(X,Y), v0(Y,X), Y = X",
                   "q(X) :- v0(X,Y), v0(Y,X), Y < X",
                   "q(X) :- v0(X,Y), v0(Y,X), X < Y"});
}

TEST(StructureTest, ComparisonFreeCyclicQuery) {
  const char* query = "q(X) :- p(X,Y), p(Y,Z), p(Z,X)";
  ASSERT_FALSE(IsAcyclic(Parser::MustParseRule(query)));
  const RewriteResult result =
      Rewrite(query, Views({"v0(A,B) :- p(A,B)"}), 1);
  ASSERT_EQ(result.outcome, RewriteOutcome::kRewritingFound);
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.rewriting.size(), 13u);  // one per canonical database
  EXPECT_EQ(result.stats.kept_canonical_databases, 13);
}

TEST(StructureTest, SemiIntervalQuery) {
  ExpectRewriting("q(A) :- p(A,B), A <= 5",
                  Views({"v0(A,B) :- p(A,B), A <= 5"}),
                  {"q(A) :- v0(A,A), v0(A,B), A = 5, B = 5",
                   "q(A) :- v0(A,B), A = 5, B < 5",
                   "q(A) :- v0(A,B), A = 5, 5 < B",
                   "q(A) :- v0(A,A), v0(A,B), B = A, A < 5",
                   "q(A) :- v0(A,B), B = 5, A < 5",
                   "q(A) :- v0(A,B), B < A, A < 5",
                   "q(A) :- v0(A,B), A < B, B < 5",
                   "q(A) :- v0(A,B), A < 5, 5 < B"});

  // A dense semi-interval self-join: ten r atoms over five variables.
  const char* dense =
      "q(X0) :- r(X0,X1), r(X1,X2), r(X2,X3), r(X3,X4), r(X0,X2), "
      "r(X1,X3), r(X2,X4), r(X0,X3), r(X1,X4), r(X0,X4), X0 < 10, "
      "X1 < 10, X2 >= 10, X3 >= 10, X4 >= 10";
  const ViewSet dense_views =
      Views({"v0(A,B,C) :- r(A,B), r(B,C), A < 10", "v1(A,B) :- r(A,B)"});
  const RewriteResult serial = Rewrite(dense, dense_views, 1);
  ASSERT_EQ(serial.outcome, RewriteOutcome::kRewritingFound)
      << serial.failure_reason;
  EXPECT_TRUE(serial.verified);
  EXPECT_EQ(serial.rewriting.size(), 344u);
  EXPECT_EQ(Rewrite(dense, dense_views, 4).rewriting.ToString(),
            serial.rewriting.ToString());
}

TEST(StructureTest, UnsatisfiableComparisonsYieldTheEmptyUnion) {
  const RewriteResult result = Rewrite("q(X) :- p(X,Y), X < 1, X > 2",
                                       Views({"v0(A,B) :- p(A,B)"}), 1);
  EXPECT_EQ(result.outcome, RewriteOutcome::kRewritingFound);
  EXPECT_EQ(result.rewriting.size(), 0u);
  EXPECT_EQ(result.stats.canonical_databases, 0);
}

}  // namespace
}  // namespace cqac

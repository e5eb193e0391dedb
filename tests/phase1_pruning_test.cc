// Phase 1 walks only the orders that satisfy the query's rigid
// comparisons and counts the rest as it passes them.  These tests hold the
// pruned walk to the full one: an explain run walks every order, so its
// invariant signature is the reference for every budget and schedule.

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "constraints/orders.h"
#include "gtest/gtest.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "testing/differential.h"

namespace cqac {
namespace {

struct Case {
  const char* name;
  const char* views;
  const char* query;
  size_t rigid_comparisons;  // RewriteWork::phase1_axioms
  bool complete;             // RewriteWork::phase1_axioms_complete
};

const Case kCases[] = {
    {"self-join-free", "v(A,B,C) :- r(A), s(A,B), t(B,C).",
     "q(A) :- r(A), s(A,B), t(B,C), A <= 8.", 1, true},
    {"self-join, rigid through the head", "v(X,Y) :- r(X,Y).",
     "q(A) :- r(A,B), r(B,C), A < 5.", 1, true},
    {"self-join, mixed", "v(X,Y) :- r(X,Y).\nw(X) :- s(X).",
     "q(A) :- r(A,B), r(B,C), s(C), A < 5, B <= C.", 1, false},
    {"self-join, non-rigid", "v(X,Y) :- r(X,Y).",
     "q(A) :- r(A,B), r(B,C), B < C.", 0, false},
    {"head constant", "v(A,B) :- r(A,B), s(B).",
     "q(A,3) :- r(A,B), s(B), B > 3.", 1, true},
    {"repeated head variable", "v(A,B) :- r(A,B).\nw(B,C) :- s(B,C).",
     "q(A,A) :- r(A,B), s(B,C), A < C.", 1, true},
    {"no comparisons", "v(A,B) :- r(A,B).\nw(B) :- s(B).",
     "q(A) :- r(A,B), s(B).", 0, true},
    // The head variable A occurs in no atom, so the keep test never
    // passes, though every comparison is rigid.
    {"unsafe head variable", "v(B) :- r(B).", "q(A) :- r(B), A < B.", 1,
     false},
    // v covers only B <= 8, so the first kept order with B > 8 fails
    // Phase 1 partway through the walk.
    {"failure mid-walk", "v(A,B) :- r(A,B), s(B), B <= 8.",
     "q(A) :- r(A,B), s(B), B > 2.", 1, true},
};

RewriteResult RunCase(const ConjunctiveQuery& query, const ViewSet& views,
                      int jobs, int64_t budget, bool explain) {
  RewriteOptions options;
  options.jobs = jobs;
  options.max_canonical_databases = budget;
  options.explain = explain;
  return EquivalentRewriter(query, views, options).Run();
}

TEST(Phase1PruningTest, RigidComparisonsAreClassified) {
  for (const Case& c : kCases) {
    const ViewSet views(Parser::MustParseProgram(c.views));
    const ConjunctiveQuery query = Parser::MustParseRule(c.query);
    const RewriteOptions options;
    const RewriteWork work = PrepareRewriteWork(query, views, options);
    EXPECT_EQ(work.phase1_axioms.size(), c.rigid_comparisons) << c.name;
    EXPECT_EQ(work.phase1_axioms_complete, c.complete) << c.name;
  }
}

// Every budget from 0 to the order count, and none, at jobs 1 and 4: the
// pruned walk's signature (answer, failure, every counter) equals that of
// the explain run, which walks every order.
TEST(Phase1PruningTest, SignatureMatchesTheFullWalkAtEveryBudget) {
  for (const Case& c : kCases) {
    const ViewSet views(Parser::MustParseProgram(c.views));
    const ConjunctiveQuery query = Parser::MustParseRule(c.query);
    const RewriteOptions options;
    const RewriteWork work = PrepareRewriteWork(query, views, options);
    const int64_t orders = CountTotalOrders(
        static_cast<int>(query.AllVariables().size()),
        static_cast<int>(OrderConstants(work.constants).size()));
    for (int64_t budget = -1; budget <= orders; ++budget) {
      const testing::RunSignature expected =
          testing::SignatureOf(RunCase(query, views, 1, budget, true));
      for (const int jobs : {1, 4}) {
        const testing::RunSignature got =
            testing::SignatureOf(RunCase(query, views, jobs, budget, false));
        EXPECT_EQ(got, expected)
            << c.name << ", budget " << budget << ", jobs " << jobs
            << "\n--- pruned\n" << got.ToString() << "\n--- full\n"
            << expected.ToString();
      }
    }
  }
}

TEST(Phase1PruningTest, FailureCaseFailsMidWalk) {
  const Case& c = kCases[std::size(kCases) - 1];  // failure mid-walk
  const RewriteResult result =
      RunCase(Parser::MustParseRule(c.query),
              ViewSet(Parser::MustParseProgram(c.views)), 1, -1, false);
  EXPECT_EQ(result.outcome, RewriteOutcome::kNoRewriting);
  EXPECT_GT(result.stats.kept_canonical_databases, 1);
  EXPECT_LT(result.stats.canonical_databases, CountTotalOrders(2, 2));
}

}  // namespace
}  // namespace cqac

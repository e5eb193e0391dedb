// Phase 1's signature index answers an order from the conclusion its
// signature's memo key found, without freezing, evaluating the views or
// building the key.  These tests hold it to the memo path: a run with the
// key observer installed bypasses the index, so its full RewriteStats
// (memo hits and misses included, wall times excluded) are the reference
// at every budget and schedule, and the explain run, which bypasses the
// memo too, is the reference for the invariant signature.

#include <cstdint>
#include <string>
#include <vector>

#include "constraints/orders.h"
#include "gtest/gtest.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "testing/differential.h"

namespace cqac {
namespace {

using Signature = RewriteWork::Phase1Signature;

struct Case {
  const char* name;
  const char* views;
  const char* query;
  Signature signature;  // RewriteWork::phase1_signature
};

const Case kCases[] = {
    {"comparison-free views", "v(A,B) :- r(A,B).\nw(B) :- s(B).",
     "q(A) :- r(A,B), s(B), A <= 8.", Signature::kPartition},
    {"variable-constant view comparison",
     "v1(A,C) :- r1(A,B), r2(B,C), C >= 8.\nv2(C) :- r3(C,D).",
     "q(A) :- r1(A,B), r2(B,C), r3(C,D), C > 8.",
     Signature::kPartitionAndGaps},
    {"two-variable view comparison", "v(A,B) :- r(A,B), A < B.\nw(B) :- s(B).",
     "q(A) :- r(A,B), s(B), A < 3.", Signature::kOff},
    {"view-head constant", "v(A,5) :- r(A,B).\nw(A,B) :- r(A,B).",
     "q(A) :- r(A,B), B <= 5.", Signature::kPartition},
    // B < C is over non-rigid terms, so every order runs the keep test.
    {"non-rigid query comparison", "v(X,Y) :- r(X,Y).",
     "q(A) :- r(A,B), r(B,C), B < C.", Signature::kPartition},
    // v yields several tuples, whose value order the signature does not
    // fix: those signatures stay off the index.
    {"multi-tuple view", "v(X) :- r(X,Y).\nw(X,Y) :- r(X,Y).",
     "q(A) :- r(A,B), r(B,C), A < 4.", Signature::kPartition},
    // v covers only B <= 8, so the first kept order with B > 8 fails
    // Phase 1 partway through the walk.
    {"failure mid-walk", "v(A,B) :- r(A,B), s(B), B <= 8.",
     "q(A) :- r(A,B), s(B), B > 2.", Signature::kPartitionAndGaps},
};

void NoteDatabase(const internal::Phase1KeyProbe&) {}

RewriteResult RunCase(const ConjunctiveQuery& query, const ViewSet& views,
                      int jobs, int64_t budget, bool explain,
                      bool observed) {
  RewriteOptions options;
  options.jobs = jobs;
  options.max_canonical_databases = budget;
  options.explain = explain;
  if (observed) internal::SetPhase1KeyObserverForTest(&NoteDatabase);
  RewriteResult result = EquivalentRewriter(query, views, options).Run();
  internal::SetPhase1KeyObserverForTest(nullptr);
  return result;
}

/// Every RewriteStats counter; the wall times are left out.
std::vector<int64_t> Counters(const RewriteStats& s) {
  return {s.canonical_databases, s.kept_canonical_databases,
          s.v0_variants,         s.mcds_formed,
          s.mcds_kept_total,     s.view_tuples_total,
          s.phase2_checks,       s.phase2_orders,
          s.phase2_mapped,       s.phase1_memo_hits,
          s.phase1_memo_misses};
}

TEST(Phase1SignatureTest, ViewComparisonsSetTheSignature) {
  for (const Case& c : kCases) {
    const ViewSet views(Parser::MustParseProgram(c.views));
    const ConjunctiveQuery query = Parser::MustParseRule(c.query);
    const RewriteOptions options;
    const RewriteWork work = PrepareRewriteWork(query, views, options);
    EXPECT_EQ(work.phase1_signature, c.signature) << c.name;
  }
}

// Every budget from -1 to the order count, at jobs 1 and 4.
TEST(Phase1SignatureTest, IndexMatchesTheMemoPathAtEveryBudget) {
  for (const Case& c : kCases) {
    const ViewSet views(Parser::MustParseProgram(c.views));
    const ConjunctiveQuery query = Parser::MustParseRule(c.query);
    const RewriteOptions options;
    const RewriteWork work = PrepareRewriteWork(query, views, options);
    const int64_t orders = CountTotalOrders(
        static_cast<int>(query.AllVariables().size()),
        static_cast<int>(OrderConstants(work.constants).size()));
    for (int64_t budget = -1; budget <= orders; ++budget) {
      const testing::RunSignature full = testing::SignatureOf(
          RunCase(query, views, 1, budget, /*explain=*/true, false));
      for (const int jobs : {1, 4}) {
        const std::string where = std::string(c.name) + ", budget " +
                                  std::to_string(budget) + ", jobs " +
                                  std::to_string(jobs);
        const RewriteResult indexed =
            RunCase(query, views, jobs, budget, false, /*observed=*/false);
        const RewriteResult memo =
            RunCase(query, views, jobs, budget, false, /*observed=*/true);
        EXPECT_EQ(Counters(indexed.stats), Counters(memo.stats)) << where;
        EXPECT_EQ(testing::SignatureOf(indexed), testing::SignatureOf(memo))
            << where;
        EXPECT_EQ(testing::SignatureOf(indexed), full) << where;
      }
    }
  }
}

}  // namespace
}  // namespace cqac

// The zero-allocation gate: after warm-up, a freeze → evaluate cycle over
// canonical databases performs no heap allocations at all, and neither
// does the order enumeration that feeds Phase 1.  The enumerator walks
// one caller-owned OrderState, the delta freezer patches its FlatInstance
// in place from cached block values, and PreparedQuery keeps every
// per-run buffer in a caller-owned Scratch, so the steady state reuses
// capacity only — and this test keeps it from regressing one std::vector
// at a time.
//
// The same holds for a Phase-1 order answered from the signature index:
// it replays a stored conclusion and builds only the Pre-Rewriting key.
//
// The counting allocator (testing/alloc_hook.h) replaces global operator
// new for this binary; under sanitizer builds it compiles out and the
// gate skips.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/orders.h"
#include "engine/canonical.h"
#include "engine/evaluate.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "runtime/memo_cache.h"
#include "testing/alloc_hook.h"

namespace cqac {
namespace {

TEST(AllocGateTest, SteadyStateFreezeAndEvaluateAllocatesNothing) {
  if (!testing::AllocCountingAvailable()) {
    GTEST_SKIP() << "counting allocator unavailable under sanitizers";
  }

  // A containment-shaped workload: enumerate q1's satisfying orders once
  // through the TotalOrder adapters, then replay freeze + match-mode
  // evaluation over the captured orders.
  const ConjunctiveQuery q1 = Parser::MustParseRule(
      "q(X) :- e(X,Y), e(Y,Z), e(Z,W), X < 5, Y < W");
  const ConjunctiveQuery q2 =
      Parser::MustParseRule("q(A) :- e(A,B), e(B,C), A < 5");

  CanonicalFreezer freezer(q1);
  const PreparedQuery prepared(q2);
  PreparedQuery::Scratch scratch;

  std::vector<TotalOrder> orders;
  ForEachSatisfyingOrder(
      q1.AllVariables(), q1.Constants(), q1.comparisons(),
      [&](const TotalOrder& order) {
        orders.push_back(order);
        return orders.size() < 64;
      });
  ASSERT_GT(orders.size(), 4u);

  // Warm-up: first pass grows the scratch buffers to their high-water
  // marks and takes the one-time full-freeze path.
  for (const TotalOrder& order : orders) {
    const FlatInstance& inst = freezer.Freeze(order);
    prepared.Run(inst, &freezer.frozen_head(), nullptr, &scratch);
  }

  // Steady state: two more full passes, each individually allocation-free.
  for (int pass = 0; pass < 2; ++pass) {
    const testing::AllocCounterScope scope;
    for (const TotalOrder& order : orders) {
      const FlatInstance& inst = freezer.Freeze(order);
      prepared.Run(inst, &freezer.frozen_head(), nullptr, &scratch);
    }
    EXPECT_EQ(scope.delta(), 0)
        << "pass " << pass << ": steady-state freeze+evaluate allocated";
  }
}

// Phase 1's per-order loop: walk a chain query's orders with the
// enumerator, freeze each through the bound layout and run the keep test
// with relations resolved once.  After one warm-up walk, a whole walk
// allocates nothing.
TEST(AllocGateTest, SteadyStateEnumerateFreezeAndKeepTestAllocatesNothing) {
  if (!testing::AllocCountingAvailable()) {
    GTEST_SKIP() << "counting allocator unavailable under sanitizers";
  }
  const ConjunctiveQuery q = Parser::MustParseRule(
      "q(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), A <= 8");
  const std::vector<std::string> variables = q.AllVariables();
  const std::vector<Rational> constants = OrderConstants(q.Constants());

  CanonicalFreezer freezer(q);
  std::vector<uint32_t> reps;
  for (const std::string& v : variables) {
    reps.push_back(freezer.VariableRepId(v));
  }
  freezer.BindLayout(reps, constants);
  const PreparedQuery prepared(q);
  std::vector<uint32_t> relations;
  prepared.ResolveRelations(freezer.instance(), &relations);
  PreparedQuery::Scratch scratch;

  const OrderEnumerator tree(static_cast<int>(variables.size()),
                             static_cast<int>(constants.size()));
  OrderState state = tree.Root();
  int64_t orders = 0;
  int64_t kept = 0;
  const OrderEnumerator::Visitor visit = [&](const OrderState& order) {
    const FlatInstance& inst = freezer.Freeze(order);
    kept += prepared.Run(inst, relations, &freezer.frozen_head(), nullptr,
                         &scratch)
                ? 1
                : 0;
    ++orders;
    return true;
  };
  tree.Walk(&state, tree.num_variables(), visit);  // Warm-up.
  ASSERT_EQ(orders, CountTotalOrders(5, 1));
  ASSERT_GT(kept, 0);

  for (int pass = 0; pass < 2; ++pass) {
    const testing::AllocCounterScope scope;
    tree.Walk(&state, tree.num_variables(), visit);
    EXPECT_EQ(scope.delta(), 0)
        << "pass " << pass << ": steady-state enumerate+freeze+keep "
        << "test allocated";
  }
  EXPECT_EQ(orders, 3 * CountTotalOrders(5, 1));
}

// Phase 1 on a chain request's walked orders, as the driver runs them
// with one memo: after one warm-up walk every order's signature is
// indexed, and a whole walk answered from the index allocates nothing.
TEST(AllocGateTest, SteadyStateSignatureIndexHitAllocatesNothing) {
  if (!testing::AllocCountingAvailable()) {
    GTEST_SKIP() << "counting allocator unavailable under sanitizers";
  }
  const ConjunctiveQuery q = Parser::MustParseRule(
      "q(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), C > 8");
  const ViewSet views(Parser::MustParseProgram(
      "v1(A,C) :- r1(A,B), r2(B,C), C >= 8.\n"
      "v2(C) :- r3(C,D), r4(D,E)."));
  const RewriteOptions options;
  const RewriteWork work = PrepareRewriteWork(q, views, options);
  ASSERT_TRUE(work.phase1_axioms_complete);
  ASSERT_EQ(work.phase1_signature,
            RewriteWork::Phase1Signature::kPartitionAndGaps);

  const OrderEnumerator tree(
      static_cast<int>(q.AllVariables().size()),
      static_cast<int>(OrderConstants(work.constants).size()),
      work.phase1_axioms);
  Phase1Memo memo;
  RewriteStats stats;
  const OrderEnumerator::Visitor visit = [&](const OrderState& order) {
    const DatabaseOutcome db =
        internal::RunWalkedOrderForTest(work, order, &memo);
    stats.phase1_memo_hits += db.stats.phase1_memo_hits;
    stats.phase1_memo_misses += db.stats.phase1_memo_misses;
    return db.status == DatabaseOutcome::Status::kKept;
  };
  OrderState state = tree.Root();
  ASSERT_TRUE(tree.Walk(&state, tree.num_variables(), visit));  // Warm-up.
  const int64_t walked = stats.phase1_memo_hits + stats.phase1_memo_misses;
  ASSERT_GT(stats.phase1_memo_misses, 0);
  ASSERT_GT(stats.phase1_memo_hits, stats.phase1_memo_misses);

  for (int pass = 0; pass < 2; ++pass) {
    const RewriteStats before = stats;
    const testing::AllocCounterScope scope;
    tree.Walk(&state, tree.num_variables(), visit);
    EXPECT_EQ(scope.delta(), 0)
        << "pass " << pass << ": an order answered from the index allocated";
    EXPECT_EQ(stats.phase1_memo_hits - before.phase1_memo_hits, walked);
    EXPECT_EQ(stats.phase1_memo_misses, before.phase1_memo_misses);
  }
}

}  // namespace
}  // namespace cqac

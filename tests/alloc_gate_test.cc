// The zero-allocation gate: after warm-up, a freeze → evaluate cycle over
// canonical databases performs no heap allocations at all.  The delta
// freezer patches its FlatInstance in place and PreparedQuery keeps every
// per-run buffer in a caller-owned Scratch, so the steady state reuses
// capacity only — and this test keeps it from regressing one std::vector
// at a time.
//
// The counting allocator (testing/alloc_hook.h) replaces global operator
// new for this binary; under sanitizer builds it compiles out and the
// gate skips.

#include <vector>

#include <gtest/gtest.h>

#include "constraints/orders.h"
#include "engine/canonical.h"
#include "engine/evaluate.h"
#include "parser/parser.h"
#include "testing/alloc_hook.h"

namespace cqac {
namespace {

TEST(AllocGateTest, SteadyStateFreezeAndEvaluateAllocatesNothing) {
  if (!testing::AllocCountingAvailable()) {
    GTEST_SKIP() << "counting allocator unavailable under sanitizers";
  }

  // A containment-shaped workload: enumerate q1's satisfying orders once
  // (enumeration may allocate; it is not under the gate), then replay
  // freeze + match-mode evaluation over the captured orders.
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

}  // namespace
}  // namespace cqac

#include "constraints/orders.h"

#include <limits>
#include <set>
#include <string>
#include <vector>

#include "constraints/ac_solver.h"
#include "gtest/gtest.h"

namespace cqac {
namespace {

TEST(OrdersTest, SingleVariableNoConstants) {
  const auto orders = EnumerateTotalOrders({"X"}, {});
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0].ToString(), "X");
}

TEST(OrdersTest, TwoVariablesNoConstants) {
  const auto orders = EnumerateTotalOrders({"X", "Y"}, {});
  // X<Y, Y<X, X=Y.
  ASSERT_EQ(orders.size(), 3u);
  std::set<std::string> rendered;
  for (const TotalOrder& o : orders) rendered.insert(o.ToString());
  EXPECT_TRUE(rendered.count("X < Y"));
  EXPECT_TRUE(rendered.count("Y < X"));
  EXPECT_TRUE(rendered.count("X = Y"));
}

TEST(OrdersTest, CountsMatchOrderedBellNumbers) {
  EXPECT_EQ(EnumerateTotalOrders({}, {}).size(), 1u);
  EXPECT_EQ(EnumerateTotalOrders({"A"}, {}).size(), 1u);
  EXPECT_EQ(EnumerateTotalOrders({"A", "B"}, {}).size(), 3u);
  EXPECT_EQ(EnumerateTotalOrders({"A", "B", "C"}, {}).size(), 13u);
  EXPECT_EQ(EnumerateTotalOrders({"A", "B", "C", "D"}, {}).size(), 75u);
  EXPECT_EQ(EnumerateTotalOrders({"A", "B", "C", "D", "E"}, {}).size(), 541u);
}

TEST(OrdersTest, CountTotalOrdersClosedForm) {
  EXPECT_EQ(CountTotalOrders(0, 0), 1);
  EXPECT_EQ(CountTotalOrders(1, 0), 1);
  EXPECT_EQ(CountTotalOrders(2, 0), 3);
  EXPECT_EQ(CountTotalOrders(3, 0), 13);
  EXPECT_EQ(CountTotalOrders(4, 0), 75);
  EXPECT_EQ(CountTotalOrders(5, 0), 541);
  EXPECT_EQ(CountTotalOrders(6, 0), 4683);
  EXPECT_EQ(CountTotalOrders(7, 0), 47293);
  EXPECT_EQ(CountTotalOrders(8, 0), 545835);
  // The largest Fubini number that fits in int64_t, then saturation.
  EXPECT_EQ(CountTotalOrders(18, 0), 3385534663256845323);
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (const int n : {19, 20, 40, 100}) {
    EXPECT_EQ(CountTotalOrders(n, 0), kMax) << n;
  }
}

// CountTotalOrders with constants is exactly what ForEachTotalOrder visits.
TEST(OrdersTest, CountTotalOrdersMatchesEnumerationWithConstants) {
  for (int n = 0; n <= 6; ++n) {
    for (int k = 0; k <= 3; ++k) {
      std::vector<std::string> vars;
      for (int i = 0; i < n; ++i) vars.push_back("V" + std::to_string(i));
      std::vector<Rational> constants;
      for (int i = 0; i < k; ++i) constants.push_back(Rational(10 * i));
      int64_t count = 0;
      ForEachTotalOrder(vars, constants, [&count](const TotalOrder&) {
        ++count;
        return true;
      });
      EXPECT_EQ(count, CountTotalOrders(n, k)) << n << " vars, " << k;
    }
  }
  // 6 variables and one constant: the chain query's 47293 databases.
  EXPECT_EQ(CountTotalOrders(6, 1), 47293);
  EXPECT_EQ(CountOrderCompletions(2, 0), 1);
  EXPECT_EQ(CountOrderCompletions(-1, 2), 0);
  EXPECT_EQ(CountOrderCompletions(1, -1), 0);
  EXPECT_EQ(CountOrderCompletions(40, 40),
            std::numeric_limits<int64_t>::max());
}

// The depth-d prefixes split the enumeration: their completion counts sum
// to the total, and completing them in order replays ForEachTotalOrder's
// exact sequence.
TEST(OrdersTest, PrefixCompletionsReplayTheEnumeration) {
  const std::vector<std::string> vars = {"A", "B", "C", "D", "E"};
  for (const std::vector<Rational>& constants :
       {std::vector<Rational>{}, std::vector<Rational>{Rational(8)},
        std::vector<Rational>{Rational(9), Rational(1)}}) {
    std::vector<std::string> expected;
    ForEachTotalOrder(vars, constants, [&expected](const TotalOrder& o) {
      expected.push_back(o.ToString());
      return true;
    });
    const int k = static_cast<int>(constants.size());
    for (int depth = 0; depth <= static_cast<int>(vars.size()); ++depth) {
      SCOPED_TRACE("depth " + std::to_string(depth) + ", " +
                   std::to_string(k) + " constants");
      const std::vector<TotalOrder> prefixes =
          TotalOrderPrefixes(vars, constants, depth);
      EXPECT_EQ(static_cast<int64_t>(prefixes.size()),
                CountTotalOrders(depth, k));
      int64_t counted = 0;
      std::vector<std::string> replayed;
      for (const TotalOrder& prefix : prefixes) {
        counted += CountOrderCompletions(
            static_cast<int>(prefix.blocks.size()),
            static_cast<int>(vars.size()) - depth);
        ForEachCompletion(vars, depth, prefix,
                          [&replayed](const TotalOrder& o) {
                            replayed.push_back(o.ToString());
                            return true;
                          });
      }
      EXPECT_EQ(counted, CountTotalOrders(static_cast<int>(vars.size()), k));
      EXPECT_EQ(replayed, expected);
    }
  }
}

// The insertion walk as it was written over TotalOrders: each variable in
// list order joins every block, then opens a block in every gap.  The
// reference sequence the index-form walk must render.
void InsertRemainingReference(const std::vector<std::string>& vars,
                              size_t next, TotalOrder* order,
                              std::vector<std::string>* out) {
  if (next == vars.size()) {
    out->push_back(order->ToString());
    return;
  }
  for (size_t b = 0; b < order->blocks.size(); ++b) {
    order->blocks[b].variables.push_back(vars[next]);
    InsertRemainingReference(vars, next + 1, order, out);
    order->blocks[b].variables.pop_back();
  }
  OrderBlock fresh;
  fresh.variables.push_back(vars[next]);
  for (size_t gap = 0; gap <= order->blocks.size(); ++gap) {
    order->blocks.insert(order->blocks.begin() + gap, fresh);
    InsertRemainingReference(vars, next + 1, order, out);
    order->blocks.erase(order->blocks.begin() + gap);
  }
}

TEST(OrdersTest, RenderedWalkMatchesTheInsertionReference) {
  const std::vector<Rational> pool = {Rational(7), Rational(-2),
                                      Rational(1, 3)};
  for (int n = 0; n <= 6; ++n) {
    std::vector<std::string> vars;
    for (int i = 0; i < n; ++i) vars.push_back("V" + std::to_string(i));
    for (int k = 0; k <= 3; ++k) {
      const std::vector<Rational> constants(pool.begin(), pool.begin() + k);
      TotalOrder base;
      for (const Rational& c : OrderConstants(constants)) {
        base.blocks.push_back(OrderBlock{{}, c});
      }
      std::vector<std::string> expected;
      InsertRemainingReference(vars, 0, &base, &expected);
      std::vector<std::string> walked;
      ForEachTotalOrder(vars, constants, [&walked](const TotalOrder& o) {
        walked.push_back(o.ToString());
        return true;
      });
      ASSERT_EQ(walked, expected) << n << " variables, " << k << " constants";
      EXPECT_EQ(static_cast<int64_t>(walked.size()), CountTotalOrders(n, k));
    }
  }
}

// StateOfOrder inverts RenderOrder on every node of the tree.
TEST(OrdersTest, StateOfOrderInvertsRenderOrder) {
  const std::vector<std::string> vars = {"A", "B", "C", "D"};
  const std::vector<Rational> constants = {Rational(2), Rational(5)};
  const OrderEnumerator tree(4, 2);
  for (int depth = 0; depth <= 4; ++depth) {
    OrderState root = tree.Root();
    int64_t nodes = 0;
    tree.Walk(&root, depth, [&](const OrderState& s) {
      TotalOrder rendered;
      RenderOrder(s, vars, constants, &rendered);
      OrderState back;
      EXPECT_TRUE(StateOfOrder(rendered, vars, constants, &back));
      EXPECT_EQ(back.var_block, s.var_block) << rendered.ToString();
      EXPECT_EQ(back.const_block, s.const_block) << rendered.ToString();
      EXPECT_EQ(back.num_blocks, s.num_blocks);
      EXPECT_EQ(back.placed, depth);
      ++nodes;
      return true;
    });
    EXPECT_EQ(nodes, CountTotalOrders(depth, 2));
    EXPECT_EQ(root.placed, 0);  // The walk restores its start node.
    EXPECT_EQ(root.var_block, std::vector<int>(4, -1));
  }
}

TEST(OrdersTest, OneVariableOneConstant) {
  const auto orders = EnumerateTotalOrders({"X"}, {Rational(8)});
  // X<8, X=8, X>8 — the three canonical databases of the paper's Example 5.
  ASSERT_EQ(orders.size(), 3u);
  std::set<std::string> rendered;
  for (const TotalOrder& o : orders) rendered.insert(o.ToString());
  EXPECT_TRUE(rendered.count("X < 8"));
  EXPECT_TRUE(rendered.count("X = 8"));
  EXPECT_TRUE(rendered.count("8 < X"));
}

TEST(OrdersTest, ConstantsStayInAscendingOrder) {
  const auto orders =
      EnumerateTotalOrders({"X"}, {Rational(5), Rational(3)});
  // Gaps: <3, =3, (3,5), =5, >5 — five placements.
  ASSERT_EQ(orders.size(), 5u);
  for (const TotalOrder& o : orders) {
    std::vector<Rational> consts;
    for (const OrderBlock& b : o.blocks) {
      if (b.constant.has_value()) consts.push_back(*b.constant);
    }
    ASSERT_EQ(consts.size(), 2u);
    EXPECT_LT(consts[0], consts[1]);
  }
}

TEST(OrdersTest, DuplicateConstantsAreDeduped) {
  const auto orders =
      EnumerateTotalOrders({"X"}, {Rational(3), Rational(3)});
  EXPECT_EQ(orders.size(), 3u);
}

TEST(OrdersTest, AllOrdersDistinct) {
  const auto orders = EnumerateTotalOrders({"A", "B", "C"}, {Rational(1)});
  std::set<std::string> rendered;
  for (const TotalOrder& o : orders) rendered.insert(o.ToString());
  EXPECT_EQ(rendered.size(), orders.size());
}

TEST(OrdersTest, AssignmentRespectsOrderAndConstants) {
  const auto orders =
      EnumerateTotalOrders({"X", "Y"}, {Rational(3), Rational(5)});
  for (const TotalOrder& order : orders) {
    const auto assignment = order.ToAssignment();
    // Walk the blocks: values must strictly increase and match constants.
    std::vector<Rational> block_values;
    for (const OrderBlock& b : order.blocks) {
      Rational value;
      if (b.constant.has_value()) {
        value = *b.constant;
      } else {
        value = assignment.at(b.variables.front());
      }
      // All variables in the block share the value.
      for (const std::string& v : b.variables) {
        EXPECT_EQ(assignment.at(v), value) << order.ToString();
      }
      block_values.push_back(value);
    }
    for (size_t i = 0; i + 1 < block_values.size(); ++i) {
      EXPECT_LT(block_values[i], block_values[i + 1]) << order.ToString();
    }
  }
}

TEST(OrdersTest, AssignmentSatisfiesOwnComparisons) {
  const auto orders =
      EnumerateTotalOrders({"X", "Y", "Z"}, {Rational(0), Rational(10)});
  for (const TotalOrder& order : orders) {
    EXPECT_TRUE(
        AcSolver::SatisfiedBy(order.ToComparisons(), order.ToAssignment()))
        << order.ToString();
  }
}

TEST(OrdersTest, ComparisonsPinDownTheOrder) {
  // The comparisons of an order must be satisfiable and force every pair's
  // relation.
  const auto orders = EnumerateTotalOrders({"X", "Y"}, {Rational(4)});
  for (const TotalOrder& order : orders) {
    const std::vector<Comparison> cs = order.ToComparisons();
    EXPECT_TRUE(AcSolver::IsSatisfiable(cs)) << order.ToString();
    const auto implies = [&cs](CompOp op) {
      return AcSolver::ImpliesAll(
          cs, {Comparison(Term::Variable("X"), op, Term::Variable("Y"))});
    };
    EXPECT_TRUE(implies(CompOp::kLt) || implies(CompOp::kGt) ||
                implies(CompOp::kEq))
        << order.ToString();
  }
}

TEST(OrdersTest, ForEachStopsEarly) {
  int count = 0;
  ForEachTotalOrder({"A", "B", "C"}, {}, [&count](const TotalOrder&) {
    ++count;
    return count < 5;
  });
  EXPECT_EQ(count, 5);
}

TEST(OrdersTest, ProjectionKeepsOnlyRequestedVariables) {
  // Find the order X < Y = 3 < Z and project away Y.
  const auto orders =
      EnumerateTotalOrders({"X", "Y", "Z"}, {Rational(3)});
  bool found = false;
  for (const TotalOrder& order : orders) {
    if (order.ToString() != "X < Y = 3 < Z") continue;
    found = true;
    const std::vector<Comparison> projected =
        order.ProjectedComparisons({"X", "Z"});
    // Expect X < 3 and 3 < Z, no mention of Y.
    ASSERT_EQ(projected.size(), 2u);
    for (const Comparison& c : projected) {
      EXPECT_NE(c.lhs(), Term::Variable("Y"));
      EXPECT_NE(c.rhs(), Term::Variable("Y"));
    }
    EXPECT_TRUE(AcSolver::ImpliesAll(
        projected, {Comparison(Term::Variable("X"), CompOp::kLt,
                               Term::Variable("Z"))}));
  }
  EXPECT_TRUE(found);
}

TEST(OrdersTest, ProjectionDropsConstantOnlyTautologies) {
  const auto orders = EnumerateTotalOrders({"X"}, {Rational(1), Rational(2)});
  for (const TotalOrder& order : orders) {
    for (const Comparison& c : order.ProjectedComparisons({})) {
      EXPECT_FALSE(c.lhs().IsConstant() && c.rhs().IsConstant())
          << order.ToString();
    }
  }
}

TEST(OrdersTest, ProjectionOfFullVariableSetIsEquivalentToFullOrder) {
  const auto orders = EnumerateTotalOrders({"X", "Y"}, {Rational(7)});
  for (const TotalOrder& order : orders) {
    const std::vector<Comparison> full = order.ToComparisons();
    const std::vector<Comparison> projected =
        order.ProjectedComparisons({"X", "Y"});
    EXPECT_TRUE(AcSolver::ImpliesAll(full, projected) &&
                AcSolver::ImpliesAll(projected, full))
        << order.ToString();
  }
}

// Property sweep: for n in 1..5, enumeration count matches the closed form
// and each assignment is injective across blocks.
class OrdersCountProperty : public ::testing::TestWithParam<int> {};

TEST_P(OrdersCountProperty, EnumerationMatchesFubini) {
  const int n = GetParam();
  std::vector<std::string> vars;
  for (int i = 0; i < n; ++i) vars.push_back("V" + std::to_string(i));
  int64_t count = 0;
  ForEachTotalOrder(vars, {}, [&count](const TotalOrder&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, CountTotalOrders(n, 0));
}

INSTANTIATE_TEST_SUITE_P(Sweep, OrdersCountProperty, ::testing::Range(1, 6));

}  // namespace
}  // namespace cqac

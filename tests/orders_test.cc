#include "constraints/orders.h"

#include <limits>
#include <set>

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
  EXPECT_EQ(CountTotalOrders(0), 1);
  EXPECT_EQ(CountTotalOrders(1), 1);
  EXPECT_EQ(CountTotalOrders(2), 3);
  EXPECT_EQ(CountTotalOrders(3), 13);
  EXPECT_EQ(CountTotalOrders(4), 75);
  EXPECT_EQ(CountTotalOrders(5), 541);
  EXPECT_EQ(CountTotalOrders(6), 4683);
  EXPECT_EQ(CountTotalOrders(7), 47293);
  EXPECT_EQ(CountTotalOrders(8), 545835);
  // The largest Fubini number that fits in int64_t, then saturation.
  EXPECT_EQ(CountTotalOrders(18), 3385534663256845323);
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (const int n : {19, 20, 40, 100}) {
    EXPECT_EQ(CountTotalOrders(n), kMax) << n;
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
    const auto rel = AcSolver::ImpliedRelation(cs, Term::Variable("X"),
                                               Term::Variable("Y"));
    ASSERT_TRUE(rel.has_value()) << order.ToString();
    EXPECT_TRUE(*rel == CompOp::kLt || *rel == CompOp::kGt ||
                *rel == CompOp::kEq)
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
    EXPECT_TRUE(AcSolver::Implies(projected,
                                  Comparison(Term::Variable("X"), CompOp::kLt,
                                             Term::Variable("Z"))));
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
    EXPECT_TRUE(AcSolver::Equivalent(order.ToComparisons(),
                                     order.ProjectedComparisons({"X", "Y"})))
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
  EXPECT_EQ(count, CountTotalOrders(n));
}

INSTANTIATE_TEST_SUITE_P(Sweep, OrdersCountProperty, ::testing::Range(1, 6));

}  // namespace
}  // namespace cqac

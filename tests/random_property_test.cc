// Randomized cross-validation of the containment substrates and the
// solver, driven by the workload generator.  These sweeps are the
// library's strongest correctness evidence beyond the paper's worked
// examples: four independent containment implementations must agree on
// arbitrary CQAC pairs, and containment verdicts must be consistent with
// concrete evaluation.

#include "constraints/ac_solver.h"
#include "containment/cqac_containment.h"
#include "engine/canonical.h"
#include "engine/evaluate.h"
#include "gtest/gtest.h"
#include "testing/normalization.h"
#include "workload/generator.h"

namespace cqac {
namespace {

ConjunctiveQuery RandomQuery(uint64_t seed) {
  WorkloadConfig config;
  config.num_variables = 3;
  config.num_constants = 1;
  config.num_subgoals = 3;
  config.num_predicates = 2;
  config.num_query_comparisons = 2;
  config.seed = seed;
  WorkloadGenerator generator(config);
  return generator.Generate().query;
}

class ContainmentMethodsProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ContainmentMethodsProperty, FourImplementationsAgree) {
  const ConjunctiveQuery q1 = RandomQuery(GetParam());
  const ConjunctiveQuery q2 = RandomQuery(GetParam() + 1000);
  for (const auto& [a, b] : {std::make_pair(&q1, &q2),
                             std::make_pair(&q2, &q1),
                             std::make_pair(&q1, &q1)}) {
    const bool canonical = CqacContainedCanonical(*a, *b);
    EXPECT_EQ(canonical, CqacContainedImplication(*a, *b))
        << a->ToString() << "  vs  " << b->ToString();
    EXPECT_EQ(canonical, testing::CqacContainedNormalized(*a, *b))
        << a->ToString() << "  vs  " << b->ToString();
    if (testing::CqacContainedSingleMapping(*a, *b)) {
      EXPECT_TRUE(canonical)
          << a->ToString() << "  vs  " << b->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainmentMethodsProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

class ContainmentVsEvaluationProperty
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContainmentVsEvaluationProperty, ContainmentImpliesAnswerInclusion) {
  const ConjunctiveQuery q1 = RandomQuery(GetParam());
  const ConjunctiveQuery q2 = RandomQuery(GetParam() + 500);
  if (!CqacContainedCanonical(q1, q2)) return;
  // Containment must hold on every canonical database of q1 — including
  // the all-distinct one — as concrete answer inclusion.
  ForEachTotalOrder(
      q1.AllVariables(), q1.Constants(), [&](const TotalOrder& order) {
        const CanonicalDatabase cdb = FreezeQuery(q1, order);
        const Relation r1 = Evaluate(q1, cdb.db);
        const Relation r2 = Evaluate(q2, cdb.db);
        EXPECT_TRUE(r1.SubsetOf(r2))
            << "on " << order.ToString() << "\n  q1=" << q1.ToString()
            << "\n  q2=" << q2.ToString();
        return true;
      });
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainmentVsEvaluationProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{16}));

class SolverConsistencyProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(SolverConsistencyProperty, SatisfiableComparisonsHaveWitnessOrder) {
  // Every satisfiable comparison set must admit at least one satisfying
  // total order, and ForEachSatisfyingOrder must visit only orders whose
  // witness satisfies the set.
  const ConjunctiveQuery q = RandomQuery(GetParam());
  const bool satisfiable = AcSolver::IsSatisfiable(q.comparisons());
  int satisfying = 0;
  ForEachSatisfyingOrder(
      q.AllVariables(), q.Constants(), q.comparisons(),
      [&](const TotalOrder& order) {
        EXPECT_TRUE(AcSolver::SatisfiedBy(q.comparisons(),
                                          order.ToAssignment()))
            << order.ToString();
        ++satisfying;
        return true;
      });
  EXPECT_EQ(satisfiable, satisfying > 0) << q.ToString();
  // Cross-check against unpruned enumeration.
  int brute = 0;
  ForEachTotalOrder(q.AllVariables(), q.Constants(),
                    [&](const TotalOrder& order) {
                      if (AcSolver::SatisfiedBy(q.comparisons(),
                                                order.ToAssignment())) {
                        ++brute;
                      }
                      return true;
                    });
  EXPECT_EQ(satisfying, brute) << q.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverConsistencyProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{31}));

class ForcedEqualityProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ForcedEqualityProperty, ForcedEqualitiesHoldInEveryWitness) {
  const ConjunctiveQuery q = RandomQuery(GetParam());
  const auto forced = AcSolver::ForcedEqualities(q.comparisons());
  if (!forced.has_value()) {
    EXPECT_FALSE(AcSolver::IsSatisfiable(q.comparisons()));
    return;
  }
  ForEachSatisfyingOrder(
      q.AllVariables(), q.Constants(), q.comparisons(),
      [&](const TotalOrder& order) {
        const auto assignment = order.ToAssignment();
        for (const auto& [var, term] : forced->bindings()) {
          const Rational lhs = assignment.at(var);
          const Rational rhs = term.IsConstant()
                                   ? term.value()
                                   : assignment.at(term.name());
          EXPECT_EQ(lhs, rhs) << var << " vs " << term.ToString() << " in "
                              << order.ToString();
        }
        return true;
      });
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForcedEqualityProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

}  // namespace
}  // namespace cqac

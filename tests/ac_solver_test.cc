#include "constraints/ac_solver.h"

#include <optional>
#include <random>

#include "constraints/orders.h"
#include "gtest/gtest.h"
#include "parser/parser.h"
#include "workload/prand.h"

namespace cqac {
namespace {

/// Parses the comparison list of a dummy rule body, e.g. "X < Y, Y <= 3".
std::vector<Comparison> Comps(const std::string& text) {
  return Parser::MustParseRule("q() :- d(X), " + text).comparisons();
}

Comparison Comp(const std::string& text) {
  const std::vector<Comparison> cs = Comps(text);
  EXPECT_EQ(cs.size(), 1u);
  return cs[0];
}

bool Implies(const std::vector<Comparison>& axioms,
             const Comparison& conclusion) {
  return AcSolver::ImpliesAll(axioms, {conclusion});
}

bool Equivalent(const std::vector<Comparison>& a,
                const std::vector<Comparison>& b) {
  return AcSolver::ImpliesAll(a, b) && AcSolver::ImpliesAll(b, a);
}

/// The strongest `op` with `axioms` implying `lhs op rhs`, preferring
/// `=`, `<`, `>`, `<=`, `>=`, `!=` in that order; nullopt when none is.
std::optional<CompOp> ImpliedRelation(const std::vector<Comparison>& axioms,
                                      const Term& lhs, const Term& rhs) {
  for (const CompOp op : {CompOp::kEq, CompOp::kLt, CompOp::kGt,
                          CompOp::kLe, CompOp::kGe, CompOp::kNe}) {
    if (Implies(axioms, Comparison(lhs, op, rhs))) return op;
  }
  return std::nullopt;
}

TEST(AcSolverTest, EmptyConjunctionSatisfiable) {
  EXPECT_TRUE(AcSolver::IsSatisfiable({}));
}

TEST(AcSolverTest, SingleComparisonSatisfiable) {
  EXPECT_TRUE(AcSolver::IsSatisfiable(Comps("X < Y")));
  EXPECT_TRUE(AcSolver::IsSatisfiable(Comps("X = Y")));
  EXPECT_TRUE(AcSolver::IsSatisfiable(Comps("X != Y")));
}

TEST(AcSolverTest, DirectContradiction) {
  EXPECT_FALSE(AcSolver::IsSatisfiable(Comps("X < Y, Y < X")));
  EXPECT_FALSE(AcSolver::IsSatisfiable(Comps("X < X")));
  EXPECT_FALSE(AcSolver::IsSatisfiable(Comps("X = Y, X != Y")));
  EXPECT_FALSE(AcSolver::IsSatisfiable(Comps("X < Y, X = Y")));
}

TEST(AcSolverTest, StrictCycleUnsatisfiable) {
  EXPECT_FALSE(AcSolver::IsSatisfiable(Comps("X <= Y, Y <= Z, Z < X")));
}

TEST(AcSolverTest, NonStrictCycleForcesEquality) {
  const std::vector<Comparison> cs = Comps("X <= Y, Y <= Z, Z <= X");
  EXPECT_TRUE(AcSolver::IsSatisfiable(cs));
  EXPECT_TRUE(Implies(cs, Comp("X = Z")));
  EXPECT_FALSE(AcSolver::IsSatisfiable(Comps("X <= Y, Y <= X, X != Y")));
}

TEST(AcSolverTest, ConstantComparisons) {
  EXPECT_TRUE(AcSolver::IsSatisfiable(Comps("3 < 5")));
  EXPECT_FALSE(AcSolver::IsSatisfiable(Comps("5 < 3")));
  EXPECT_FALSE(AcSolver::IsSatisfiable(Comps("3 = 5")));
  EXPECT_TRUE(AcSolver::IsSatisfiable(Comps("3 != 5")));
}

TEST(AcSolverTest, VariableBetweenConstants) {
  EXPECT_TRUE(AcSolver::IsSatisfiable(Comps("3 < X, X < 4")));
  EXPECT_FALSE(AcSolver::IsSatisfiable(Comps("4 < X, X < 3")));
  EXPECT_FALSE(AcSolver::IsSatisfiable(Comps("3 <= X, X < 3")));
  EXPECT_TRUE(AcSolver::IsSatisfiable(Comps("3 <= X, X <= 3")));
}

TEST(AcSolverTest, ChainThroughConstantsUnsatisfiable) {
  // X >= 5 and a path X <= Y <= 3 contradicts 3 < 5.
  EXPECT_FALSE(AcSolver::IsSatisfiable(Comps("X >= 5, X <= Y, Y <= 3")));
}

TEST(AcSolverTest, DensityMakesOpenIntervalsSatisfiable) {
  // Over the integers this would be unsatisfiable; over the rationals the
  // open interval (3, 4) is inhabited.
  EXPECT_TRUE(AcSolver::IsSatisfiable(Comps("3 < X, X < 4, X != 3.5")));
}

TEST(AcSolverTest, EqualityWithConstantPropagates) {
  EXPECT_FALSE(AcSolver::IsSatisfiable(Comps("X = 3, X = 5")));
  EXPECT_TRUE(AcSolver::IsSatisfiable(Comps("X = 3, Y = 5, X < Y")));
  EXPECT_FALSE(AcSolver::IsSatisfiable(Comps("X = 3, Y = 5, X > Y")));
}

TEST(AcSolverTest, ImpliesTransitivity) {
  EXPECT_TRUE(Implies(Comps("X < Y, Y < Z"), Comp("X < Z")));
  EXPECT_TRUE(Implies(Comps("X <= Y, Y < Z"), Comp("X < Z")));
  EXPECT_TRUE(Implies(Comps("X <= Y, Y <= Z"), Comp("X <= Z")));
  EXPECT_FALSE(Implies(Comps("X <= Y, Y <= Z"), Comp("X < Z")));
}

TEST(AcSolverTest, ImpliesWithConstants) {
  EXPECT_TRUE(Implies(Comps("X < 3"), Comp("X < 5")));
  EXPECT_FALSE(Implies(Comps("X < 5"), Comp("X < 3")));
  EXPECT_TRUE(Implies(Comps("X <= 3"), Comp("X != 5")));
  EXPECT_TRUE(Implies(Comps("X < Y, Y < 3"), Comp("X != 7")));
}

TEST(AcSolverTest, ImpliesNotEqual) {
  EXPECT_TRUE(Implies(Comps("X < Y"), Comp("X != Y")));
  EXPECT_FALSE(Implies(Comps("X <= Y"), Comp("X != Y")));
}

TEST(AcSolverTest, ImpliesEqualityFromSandwich) {
  EXPECT_TRUE(Implies(Comps("X <= Y, Y <= X"), Comp("X = Y")));
  EXPECT_TRUE(Implies(Comps("3 <= X, X <= 3"), Comp("X = 3")));
}

TEST(AcSolverTest, VacuousImplicationFromUnsatAxioms) {
  EXPECT_TRUE(Implies(Comps("X < X"), Comp("X = 7")));
}

TEST(AcSolverTest, ImpliesAllAndEquivalent) {
  EXPECT_TRUE(
      AcSolver::ImpliesAll(Comps("X = Y, Y = Z"), Comps("X = Z, X <= Z")));
  EXPECT_TRUE(Equivalent(Comps("X <= Y, Y <= X"), Comps("X = Y")));
  EXPECT_FALSE(Equivalent(Comps("X <= Y"), Comps("X < Y")));
}

TEST(AcSolverTest, ImpliedRelationPrefersStrongest) {
  auto rel = ImpliedRelation(Comps("X <= Y, Y <= X"),
                                       Term::Variable("X"),
                                       Term::Variable("Y"));
  ASSERT_TRUE(rel.has_value());
  EXPECT_EQ(*rel, CompOp::kEq);

  rel = ImpliedRelation(Comps("X < Y"), Term::Variable("X"),
                                  Term::Variable("Y"));
  ASSERT_TRUE(rel.has_value());
  EXPECT_EQ(*rel, CompOp::kLt);

  rel = ImpliedRelation(Comps("X <= Y"), Term::Variable("X"),
                                  Term::Variable("Y"));
  ASSERT_TRUE(rel.has_value());
  EXPECT_EQ(*rel, CompOp::kLe);

  rel = ImpliedRelation(Comps("X < Y"), Term::Variable("X"),
                                  Term::Variable("Z"));
  EXPECT_FALSE(rel.has_value());
}

TEST(AcSolverTest, ForcedEqualitiesCollapseScc) {
  auto forced = AcSolver::ForcedEqualities(Comps("X <= Y, Y <= X"));
  ASSERT_TRUE(forced.has_value());
  // Y is bound to the lexicographically smaller X.
  EXPECT_TRUE(forced->IsBound("Y"));
  EXPECT_EQ(forced->Lookup("Y"), Term::Variable("X"));
  EXPECT_FALSE(forced->IsBound("X"));
}

TEST(AcSolverTest, ForcedEqualitiesPreferConstantRepresentative) {
  auto forced = AcSolver::ForcedEqualities(Comps("X <= 3, 3 <= X"));
  ASSERT_TRUE(forced.has_value());
  EXPECT_EQ(forced->Lookup("X"), Term::Constant(3));
}

TEST(AcSolverTest, ForcedEqualitiesEmptyWhenNoneForced) {
  auto forced = AcSolver::ForcedEqualities(Comps("X <= Y, Y <= Z"));
  ASSERT_TRUE(forced.has_value());
  EXPECT_TRUE(forced->empty());
}

TEST(AcSolverTest, ForcedEqualitiesNulloptWhenUnsat) {
  EXPECT_FALSE(AcSolver::ForcedEqualities(Comps("X < X")).has_value());
}

TEST(AcSolverTest, ForcedEqualitiesLongCycle) {
  auto forced =
      AcSolver::ForcedEqualities(Comps("A <= B, B <= C, C <= D, D <= A"));
  ASSERT_TRUE(forced.has_value());
  EXPECT_EQ(forced->size(), 3);
  EXPECT_EQ(forced->Lookup("D"), Term::Variable("A"));
}

TEST(AcSolverTest, SatisfiedByEvaluatesAssignment) {
  const std::vector<Comparison> cs = Comps("X < Y, Y <= 3");
  EXPECT_TRUE(AcSolver::SatisfiedBy(
      cs, {{"X", Rational(1)}, {"Y", Rational(2)}}));
  EXPECT_FALSE(AcSolver::SatisfiedBy(
      cs, {{"X", Rational(2)}, {"Y", Rational(2)}}));
  EXPECT_FALSE(AcSolver::SatisfiedBy(
      cs, {{"X", Rational(1)}, {"Y", Rational(4)}}));
  // Missing binding -> false.
  EXPECT_FALSE(AcSolver::SatisfiedBy(cs, {{"X", Rational(1)}}));
}

TEST(AcSolverTest, RemoveRedundantDropsImplied) {
  const std::vector<Comparison> reduced =
      AcSolver::RemoveRedundant(Comps("X < Y, Y < Z, X < Z"));
  EXPECT_EQ(reduced.size(), 2u);
  EXPECT_TRUE(Equivalent(reduced, Comps("X < Y, Y < Z, X < Z")));
}

TEST(AcSolverTest, RemoveRedundantDropsConstantTautologies) {
  const std::vector<Comparison> reduced =
      AcSolver::RemoveRedundant(Comps("3 < 5, X < Y"));
  EXPECT_EQ(reduced.size(), 1u);
  EXPECT_EQ(reduced[0].ToString(), "X < Y");
}

TEST(AcSolverTest, RemoveRedundantKeepsIndependentConstraints) {
  const std::vector<Comparison> original = Comps("X < Y, Z < W");
  EXPECT_EQ(AcSolver::RemoveRedundant(original).size(), 2u);
}

// Property sweep: implication must agree with brute-force evaluation on a
// small grid of assignments (soundness direction: implied formulas hold
// under every satisfying grid assignment).
class AcSolverGridProperty : public ::testing::TestWithParam<int> {};

TEST_P(AcSolverGridProperty, ImpliedComparisonsHoldOnGrid) {
  const int seed = GetParam();
  // Small deterministic family of axiom sets, varied by seed.
  const std::vector<std::vector<Comparison>> axiom_sets = {
      Comps("X < Y, Y <= Z"),
      Comps("X <= Y, Y <= X"),
      Comps("X <= 2, 1 <= X"),
      Comps("X < Y, Y < 3"),
      Comps("X != Y, X <= Y"),
  };
  const std::vector<Comparison>& axioms =
      axiom_sets[seed % axiom_sets.size()];
  const std::vector<Comparison> candidates = Comps(
      "X < Y, X <= Y, X = Y, X != Y, X >= Y, X > Y, X < Z, X <= Z, X < 3, "
      "X <= 2, Y > 1, Z != 0");
  for (const Comparison& candidate : candidates) {
    if (!Implies(axioms, candidate)) continue;
    // Check the implication on all grid points.
    for (int x = 0; x <= 4; ++x) {
      for (int y = 0; y <= 4; ++y) {
        for (int z = 0; z <= 4; ++z) {
          const std::map<std::string, Rational> assignment = {
              {"X", Rational(x)}, {"Y", Rational(y)}, {"Z", Rational(z)}};
          if (AcSolver::SatisfiedBy(axioms, assignment)) {
            EXPECT_TRUE(AcSolver::SatisfiedBy({candidate}, assignment))
                << "axioms satisfied but implied candidate "
                << candidate.ToString() << " fails at x=" << x << " y=" << y
                << " z=" << z;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AcSolverGridProperty,
                         ::testing::Range(0, 5));

// Randomized two-direction check of every AcSolver service against brute
// force: over a dense order a conjunction's truth depends only on the
// relative order of its terms, so enumerating the total orders of its
// variables among its constants (ForEachTotalOrder) and evaluating one
// witness assignment per order decides satisfiability and implication
// exactly.  Up to 5 variables, 3 constants, all six operators.
class AcSolverOracleProperty : public ::testing::TestWithParam<int> {};

TEST_P(AcSolverOracleProperty, AgreesWithTotalOrderEnumeration) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 7919 + 17);
  auto draw = [&rng](int lo, int hi) {
    return PortableUniformInt(rng, lo, hi);
  };
  const std::vector<Rational> constant_pool = {Rational(-1), Rational(0),
                                               Rational(1, 2), Rational(3)};
  std::vector<Term> terms;
  std::vector<std::string> variables;
  for (int i = draw(1, 5); i > 0; --i) {
    variables.push_back("V" + std::to_string(variables.size()));
    terms.push_back(Term::Variable(variables.back()));
  }
  std::vector<Rational> constants;
  for (const Rational& c : constant_pool) {
    if (static_cast<int>(constants.size()) < 3 && draw(0, 1) == 1) {
      constants.push_back(c);
      terms.push_back(Term::Constant(c));
    }
  }
  const CompOp ops[] = {CompOp::kLt, CompOp::kLe, CompOp::kEq,
                        CompOp::kNe, CompOp::kGe, CompOp::kGt};
  auto random_comparison = [&]() {
    const Term& lhs = terms[draw(0, static_cast<int>(terms.size()) - 1)];
    const Term& rhs = terms[draw(0, static_cast<int>(terms.size()) - 1)];
    return Comparison(lhs, ops[draw(0, 5)], rhs);
  };
  std::vector<Comparison> axioms;
  for (int i = draw(0, 6); i > 0; --i) axioms.push_back(random_comparison());
  std::vector<Comparison> conclusions;
  for (int i = 0; i < 8; ++i) conclusions.push_back(random_comparison());
  const std::vector<Comparison> reduced = AcSolver::RemoveRedundant(axioms);

  // One pass over the total orders collects every brute-force answer.
  bool satisfiable = false;
  std::vector<bool> conclusion_holds(conclusions.size(), true);
  bool reduced_equivalent = true;
  // dropped_i_consistent[i]: some order satisfies reduced minus i but not
  // reduced[i], i.e. reduced[i] is not implied by the rest.
  std::vector<bool> not_implied_by_rest(reduced.size(), false);
  ForEachTotalOrder(variables, constants, [&](const TotalOrder& order) {
    const std::map<std::string, Rational> a = order.ToAssignment();
    const bool holds = AcSolver::SatisfiedBy(axioms, a);
    if (AcSolver::SatisfiedBy(reduced, a) != holds) reduced_equivalent = false;
    if (holds) {
      satisfiable = true;
      for (size_t i = 0; i < conclusions.size(); ++i) {
        if (!AcSolver::SatisfiedBy({conclusions[i]}, a)) {
          conclusion_holds[i] = false;
        }
      }
    }
    for (size_t i = 0; i < reduced.size(); ++i) {
      std::vector<Comparison> rest = reduced;
      rest.erase(rest.begin() + i);
      if (AcSolver::SatisfiedBy(rest, a) &&
          !AcSolver::SatisfiedBy({reduced[i]}, a)) {
        not_implied_by_rest[i] = true;
      }
    }
    return true;
  });

  std::string context;
  for (const Comparison& c : axioms) context += c.ToString() + ", ";
  SCOPED_TRACE("axioms: " + context);
  EXPECT_EQ(AcSolver::IsSatisfiable(axioms), satisfiable);
  for (size_t i = 0; i < conclusions.size(); ++i) {
    EXPECT_EQ(Implies(axioms, conclusions[i]), conclusion_holds[i])
        << conclusions[i].ToString();
  }
  EXPECT_TRUE(reduced_equivalent);
  if (satisfiable) {
    for (size_t i = 0; i < reduced.size(); ++i) {
      EXPECT_TRUE(not_implied_by_rest[i])
          << reduced[i].ToString() << " is implied by the rest";
    }
  } else {
    EXPECT_EQ(reduced, axioms);
  }

  // Forced equalities: two variables share a representative iff the
  // axioms imply their equality.
  const std::optional<Substitution> forced =
      AcSolver::ForcedEqualities(axioms);
  ASSERT_EQ(forced.has_value(), satisfiable);
  if (satisfiable) {
    for (const Term& x : terms) {
      for (const Term& y : terms) {
        if (!x.IsVariable()) continue;
        EXPECT_EQ(forced->Apply(x) == forced->Apply(y),
                  Implies(axioms, Comparison(x, CompOp::kEq, y)))
            << x.ToString() << " vs " << y.ToString();
      }
    }
  }

  // Term-table invariant: padding the core's table with constants and
  // variables no comparison mentions, before and after the real terms,
  // changes no answer.
  AcCore plain;
  AcCore padded;
  padded.Intern(Term::Constant(Rational(7)));
  padded.Intern(Term::Variable("P0"));
  padded.Intern(Term::Constant(Rational(-5, 3)));
  std::vector<IdComparison> plain_ids;
  std::vector<IdComparison> padded_ids;
  for (const Comparison& c : axioms) {
    plain_ids.push_back(plain.Intern(c));
    padded_ids.push_back(padded.Intern(c));
  }
  padded.Intern(Term::Constant(Rational(1, 4)));
  padded.Intern(Term::Variable("P1"));
  padded.Intern(Term::Constant(Rational(100)));
  EXPECT_EQ(padded.Satisfiable(padded_ids), plain.Satisfiable(plain_ids));
  for (const Comparison& c : conclusions) {
    EXPECT_EQ(padded.Implies(padded_ids, -1, padded.Intern(c)),
              plain.Implies(plain_ids, -1, plain.Intern(c)))
        << c.ToString();
  }
  for (size_t skip = 0; skip < axioms.size(); ++skip) {
    EXPECT_EQ(padded.Satisfiable(padded_ids, static_cast<int>(skip)),
              plain.Satisfiable(plain_ids, static_cast<int>(skip)));
  }
  std::vector<IdComparison> plain_reduced = plain_ids;
  std::vector<IdComparison> padded_reduced = padded_ids;
  plain.RemoveRedundant(&plain_reduced);
  padded.RemoveRedundant(&padded_reduced);
  ASSERT_EQ(plain_reduced.size(), padded_reduced.size());
  for (size_t i = 0; i < plain_reduced.size(); ++i) {
    EXPECT_EQ(plain.ToComparison(plain_reduced[i]),
              padded.ToComparison(padded_reduced[i]));
  }
  std::vector<int> plain_rep;
  std::vector<int> padded_rep;
  ASSERT_EQ(plain.ForcedEqualities(plain_ids, &plain_rep),
            padded.ForcedEqualities(padded_ids, &padded_rep));
  if (satisfiable) {
    for (int p = 0; p < plain.size(); ++p) {
      const int q = padded.Intern(plain.term(p));  // already in the table
      EXPECT_EQ(plain.term(plain_rep[p]), padded.term(padded_rep[q]))
          << plain.term(p).ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcSolverOracleProperty,
                         ::testing::Range(0, 200));

}  // namespace
}  // namespace cqac

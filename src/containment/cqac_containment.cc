#include "containment/cqac_containment.h"

#include <algorithm>
#include <span>

#include "constraints/ac_solver.h"
#include "constraints/orders.h"
#include "containment/homomorphism.h"
#include "containment/normalization.h"
#include "engine/canonical.h"
#include "engine/evaluate.h"

namespace cqac {

namespace {

void MergeConstants(const std::vector<Rational>& extra,
                    std::vector<Rational>* into) {
  for (const Rational& c : extra) {
    if (std::find(into->begin(), into->end(), c) == into->end()) {
      into->push_back(c);
    }
  }
}

/// The substitution that collapses each variable of `order` to its block's
/// representative term.
Substitution CollapseByOrder(const TotalOrder& order) {
  Substitution s;
  for (const OrderBlock& block : order.blocks) {
    const Term rep = block.Representative();
    for (const std::string& v : block.variables) {
      const Term var = Term::Variable(v);
      if (var != rep) s.Bind(v, rep);
    }
  }
  return s;
}

}  // namespace

namespace {

/// The canonical-database test's enumeration, shared by every front end:
/// walks the satisfying orders of q1's `variables` and `constants` (q1's
/// and the right-hand sides') under q1's comparisons `axioms`, freezes q1
/// with `freezer` on each, and stops at the first one on which no query of
/// `rhs` computes the frozen head.  A right-hand side whose head arity
/// differs from q1's never computes it.
bool ContainedOnCanonicalDatabases(CanonicalFreezer* freezer,
                                   const std::vector<std::string>& variables,
                                   const std::vector<Rational>& constants,
                                   const std::vector<Comparison>& axioms,
                                   std::span<const PreparedQuery* const> rhs,
                                   ContainmentStats* stats) {
  static thread_local PreparedQuery::Scratch scratch;
  bool contained = true;
  OrderEnumerationStats enum_stats;
  ForEachSatisfyingOrder(
      variables, constants, axioms,
      [&](const TotalOrder& order) {
        const FlatInstance& inst = freezer->Freeze(order);
        const Tuple& head = freezer->frozen_head();
        for (const PreparedQuery* q2 : rhs) {
          if (q2->head_arity() == static_cast<int>(head.size()) &&
              q2->Run(inst, &head, nullptr, &scratch)) {
            return true;
          }
        }
        contained = false;
        return false;  // Counterexample found; stop enumerating.
      },
      &enum_stats);
  if (stats != nullptr) {
    stats->orders_enumerated += enum_stats.orders_emitted;
    stats->nodes_visited += enum_stats.nodes_visited;
    stats->nodes_pruned += enum_stats.nodes_pruned;
  }
  return contained;
}

}  // namespace

bool CqacContainedCanonical(const ConjunctiveQuery& q1,
                            const ConjunctiveQuery& q2,
                            ContainmentStats* stats, const AcyclicPlan*) {
  if (!AcSolver::IsSatisfiable(q1.comparisons())) return true;  // q1 empty.
  if (q1.head().arity() != q2.head().arity()) return false;

  std::vector<Rational> constants = q1.Constants();
  MergeConstants(q2.Constants(), &constants);
  CanonicalFreezer freezer(q1);
  const PreparedQuery prepared(q2);
  const PreparedQuery* const rhs[] = {&prepared};
  return ContainedOnCanonicalDatabases(&freezer, q1.AllVariables(), constants,
                                       q1.comparisons(), rhs, stats);
}

bool CqacContainedPrepared(const IdQuery& q1, const PreparedQuery& q2,
                           const std::vector<Rational>& q2_constants,
                           ContainmentStats* stats) {
  if (static_cast<int>(q1.head.size()) != q2.head_arity()) return false;
  std::vector<std::string> variables;
  std::vector<Rational> constants;
  q1.CollectTerms(&variables, &constants);
  MergeConstants(q2_constants, &constants);
  std::vector<Comparison> axioms;
  axioms.reserve(q1.comparisons.size());
  for (const IdComparison& c : q1.comparisons) {
    axioms.push_back(q1.core.ToComparison(c));
  }
  CanonicalFreezer freezer(q1);
  const PreparedQuery* const rhs[] = {&q2};
  return ContainedOnCanonicalDatabases(&freezer, variables, constants, axioms,
                                       rhs, stats);
}

bool CqacContainedImplication(const ConjunctiveQuery& q1,
                              const ConjunctiveQuery& q2,
                              ContainmentStats* stats) {
  if (!AcSolver::IsSatisfiable(q1.comparisons())) return true;
  if (q1.head().arity() != q2.head().arity()) return false;

  std::vector<Rational> constants = q1.Constants();
  MergeConstants(q2.Constants(), &constants);

  bool contained = true;
  ForEachSatisfyingOrder(
      q1.AllVariables(), constants, q1.comparisons(),
      [&](const TotalOrder& order) {
        if (stats != nullptr) ++stats->orders_enumerated;
        const std::map<std::string, Rational> assignment =
            order.ToAssignment();
        // Collapse q1 by the order's equalities and look for a containment
        // mapping from q2 whose comparison image holds under the order.
        const ConjunctiveQuery q1_collapsed =
            q1.ApplySubstitution(CollapseByOrder(order));
        bool some_mapping_works = false;
        ForEachContainmentMapping(
            q2, q1_collapsed, [&](const Substitution& mu) {
              std::vector<Comparison> image;
              image.reserve(q2.comparisons().size());
              for (const Comparison& c : q2.comparisons()) {
                image.push_back(mu.Apply(c));
              }
              if (AcSolver::SatisfiedBy(image, assignment)) {
                some_mapping_works = true;
                return false;  // Stop mapping enumeration.
              }
              return true;
            });
        if (!some_mapping_works) {
          contained = false;
          return false;
        }
        return true;
      });
  return contained;
}

bool CqacContainedNormalized(const ConjunctiveQuery& q1,
                             const ConjunctiveQuery& q2,
                             ContainmentStats* stats) {
  if (!AcSolver::IsSatisfiable(q1.comparisons())) return true;
  if (q1.head().arity() != q2.head().arity()) return false;

  const ConjunctiveQuery q1n = NormalizeQuery(q1);
  const ConjunctiveQuery q2n = NormalizeQuery(q2.RenameVariables("_m"));

  std::vector<Rational> constants = q1.Constants();
  MergeConstants(q2.Constants(), &constants);

  bool contained = true;
  ForEachSatisfyingOrder(
      q1n.AllVariables(), constants, q1n.comparisons(),
      [&](const TotalOrder& order) {
        if (stats != nullptr) ++stats->orders_enumerated;
        const std::map<std::string, Rational> assignment =
            order.ToAssignment();
        // Pin every q1n variable to its value; a mapping works when its
        // comparison image admits values for q2's leftover existential
        // variables.
        std::vector<Comparison> pinned;
        for (const auto& [var, value] : assignment) {
          pinned.push_back(Comparison(Term::Variable(var), CompOp::kEq,
                                      Term::Constant(value)));
        }
        const ConjunctiveQuery q1_collapsed =
            q1n.ApplySubstitution(CollapseByOrder(order));
        bool some_mapping_works = false;
        ForEachContainmentMapping(
            q2n, q1_collapsed, [&](const Substitution& mu) {
              std::vector<Comparison> combined = pinned;
              for (const Comparison& c : q2n.comparisons()) {
                combined.push_back(mu.Apply(c));
              }
              if (AcSolver::IsSatisfiable(combined)) {
                some_mapping_works = true;
                return false;
              }
              return true;
            });
        if (!some_mapping_works) {
          contained = false;
          return false;
        }
        return true;
      });
  return contained;
}

bool CqacContainedSingleMapping(const ConjunctiveQuery& q1,
                                const ConjunctiveQuery& q2) {
  if (!AcSolver::IsSatisfiable(q1.comparisons())) return true;
  if (q1.head().arity() != q2.head().arity()) return false;
  bool found = false;
  ForEachContainmentMapping(q2, q1, [&](const Substitution& mu) {
    std::vector<Comparison> image;
    image.reserve(q2.comparisons().size());
    for (const Comparison& c : q2.comparisons()) image.push_back(mu.Apply(c));
    if (AcSolver::ImpliesAll(q1.comparisons(), image)) {
      found = true;
      return false;
    }
    return true;
  });
  return found;
}

bool IsLeftSemiInterval(const ConjunctiveQuery& q) {
  for (const Comparison& raw : q.comparisons()) {
    Comparison c = raw;
    if (c.rhs().IsVariable() && c.lhs().IsConstant()) c = c.Flipped();
    if (!c.lhs().IsVariable() || !c.rhs().IsConstant()) return false;
    if (c.op() != CompOp::kLt && c.op() != CompOp::kLe &&
        c.op() != CompOp::kEq) {
      return false;
    }
  }
  return true;
}

bool CqacContained(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  return CqacContainedCanonical(q1, q2);
}

bool CqacEquivalent(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  return CqacContained(q1, q2) && CqacContained(q2, q1);
}

bool CqacContainedInUnion(const ConjunctiveQuery& q, const UnionQuery& u,
                          ContainmentStats* stats) {
  if (!AcSolver::IsSatisfiable(q.comparisons())) return true;

  std::vector<Rational> constants = q.Constants();
  for (const ConjunctiveQuery& disjunct : u.disjuncts()) {
    MergeConstants(disjunct.Constants(), &constants);
  }

  std::vector<PreparedQuery> prepared;
  std::vector<const PreparedQuery*> rhs;
  prepared.reserve(u.disjuncts().size());
  for (const ConjunctiveQuery& disjunct : u.disjuncts()) {
    rhs.push_back(&prepared.emplace_back(disjunct));
  }
  CanonicalFreezer freezer(q);
  return ContainedOnCanonicalDatabases(&freezer, q.AllVariables(), constants,
                                       q.comparisons(), rhs, stats);
}

bool UnionCqacContained(const UnionQuery& p, const UnionQuery& q) {
  for (const ConjunctiveQuery& pi : p.disjuncts()) {
    if (!CqacContainedInUnion(pi, q)) return false;
  }
  return true;
}

bool UnionCqacEquivalent(const UnionQuery& p, const UnionQuery& q) {
  return UnionCqacContained(p, q) && UnionCqacContained(q, p);
}

}  // namespace cqac

#include "testing/normalization.h"

#include <map>
#include <string>
#include <vector>

#include "constraints/ac_solver.h"
#include "constraints/orders.h"
#include "containment/homomorphism.h"

namespace cqac {
namespace testing {

ConjunctiveQuery NormalizeQuery(const ConjunctiveQuery& q) {
  std::vector<Atom> body;
  std::vector<Comparison> comparisons;
  int counter = 0;
  for (const Atom& atom : q.body()) {
    std::vector<Term> args;
    args.reserve(atom.args().size());
    for (const Term& original : atom.args()) {
      const Term fresh = Term::Variable("_n" + std::to_string(counter++));
      args.push_back(fresh);
      comparisons.push_back(Comparison(fresh, CompOp::kEq, original));
    }
    body.push_back(Atom(atom.predicate(), std::move(args)));
  }
  for (const Comparison& c : q.comparisons()) comparisons.push_back(c);
  return ConjunctiveQuery(q.head(), std::move(body), std::move(comparisons));
}

bool CqacContainedNormalized(const ConjunctiveQuery& q1,
                             const ConjunctiveQuery& q2,
                             ContainmentStats* stats) {
  if (!AcSolver::IsSatisfiable(q1.comparisons())) return true;
  if (q1.head().arity() != q2.head().arity()) return false;

  const ConjunctiveQuery q1n = NormalizeQuery(q1);
  const ConjunctiveQuery q2n = NormalizeQuery(q2.RenameVariables("_m"));

  // The enumeration drops duplicate constants.
  std::vector<Rational> constants = q1.Constants();
  for (const Rational& c : q2.Constants()) constants.push_back(c);

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
        // Collapse q1n onto each block's representative.
        Substitution collapse;
        for (const OrderBlock& block : order.blocks) {
          const Term rep = block.Representative();
          for (const std::string& v : block.variables) {
            if (Term::Variable(v) != rep) collapse.Bind(v, rep);
          }
        }
        const ConjunctiveQuery q1_collapsed = q1n.ApplySubstitution(collapse);
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

}  // namespace testing
}  // namespace cqac

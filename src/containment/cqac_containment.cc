#include "containment/cqac_containment.h"

#include <algorithm>
#include <span>

#include "constraints/ac_solver.h"
#include "constraints/id_query.h"
#include "constraints/orders.h"
#include "containment/binding_trail.h"
#include "containment/homomorphism.h"
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
/// walks the satisfying orders of q1's variables (`var_reps`, their
/// representative ids in `freezer`, q1's) and `constants` (ascending and
/// distinct; q1's and the right-hand sides') under q1's comparisons
/// `axioms`, freezes q1 on each, and stops at the first one on which no
/// query of `rhs` computes the frozen head.  A right-hand side whose head
/// arity differs from q1's never computes it.
bool ContainedOnCanonicalDatabases(CanonicalFreezer* freezer,
                                   const std::vector<uint32_t>& var_reps,
                                   const std::vector<Rational>& constants,
                                   const std::vector<OrderAxiom>& axioms,
                                   std::span<const PreparedQuery* const> rhs,
                                   ContainmentStats* stats) {
  static thread_local PreparedQuery::Scratch scratch;
  static thread_local std::vector<std::vector<uint32_t>> relations;
  freezer->BindLayout(var_reps, constants);
  relations.resize(rhs.size());
  for (size_t r = 0; r < rhs.size(); ++r) {
    rhs[r]->ResolveRelations(freezer->instance(), &relations[r]);
  }
  const OrderEnumerator tree(static_cast<int>(var_reps.size()),
                             static_cast<int>(constants.size()), axioms);
  OrderState root = tree.Root();
  bool contained = true;
  OrderEnumerationStats enum_stats;
  tree.Walk(
      &root, tree.num_variables(),
      [&](const OrderState& order) {
        ++enum_stats.orders_emitted;
        const FlatInstance& inst = freezer->Freeze(order);
        const Tuple& head = freezer->frozen_head();
        for (size_t r = 0; r < rhs.size(); ++r) {
          if (rhs[r]->head_arity() == static_cast<int>(head.size()) &&
              rhs[r]->Run(inst, relations[r], &head, nullptr, &scratch)) {
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

/// The same for a q1 in string form, with the constants of q1 and the
/// right-hand sides in any order.
bool ContainedOnCanonicalDatabases(const ConjunctiveQuery& q1,
                                   const std::vector<Rational>& constants,
                                   std::span<const PreparedQuery* const> rhs,
                                   ContainmentStats* stats) {
  const std::vector<std::string> variables = q1.AllVariables();
  const std::vector<Rational> sorted = OrderConstants(constants);
  // Always compiles: q1's comparisons mention only q1's terms.
  std::vector<OrderAxiom> axioms;
  CompileOrderAxioms(variables, sorted, q1.comparisons(), &axioms);
  CanonicalFreezer freezer(q1);
  std::vector<uint32_t> var_reps;
  var_reps.reserve(variables.size());
  for (const std::string& v : variables) {
    var_reps.push_back(freezer.VariableRepId(v));
  }
  return ContainedOnCanonicalDatabases(&freezer, var_reps, sorted, axioms,
                                       rhs, stats);
}

}  // namespace

bool CqacContainedCanonical(const ConjunctiveQuery& q1,
                            const ConjunctiveQuery& q2,
                            ContainmentStats* stats, const AcyclicPlan*) {
  if (!AcSolver::IsSatisfiable(q1.comparisons())) return true;  // q1 empty.
  if (q1.head().arity() != q2.head().arity()) return false;

  std::vector<Rational> constants = q1.Constants();
  MergeConstants(q2.Constants(), &constants);
  const PreparedQuery prepared(q2);
  const PreparedQuery* const rhs[] = {&prepared};
  return ContainedOnCanonicalDatabases(q1, constants, rhs, stats);
}

bool CqacContainedPrepared(const IdQuery& q1, const PreparedQuery& q2,
                           const std::vector<Rational>& q2_constants,
                           ContainmentStats* stats) {
  if (static_cast<int>(q1.head.size()) != q2.head_arity()) return false;
  std::vector<int> variable_ids;
  std::vector<int> constant_ids;
  q1.CollectTerms(&variable_ids, &constant_ids);
  std::vector<Rational> constants = q2_constants;
  for (const int id : constant_ids) {
    constants.push_back(q1.core.term(id).value());
  }
  constants = OrderConstants(constants);
  // Each term's place in the enumeration, for the axioms.
  std::vector<OrderTerm> term_of(q1.core.size(), OrderTerm{false, 0});
  for (size_t i = 0; i < variable_ids.size(); ++i) {
    term_of[variable_ids[i]] = {true, static_cast<int>(i)};
  }
  for (const int id : constant_ids) {
    term_of[id] = {false, static_cast<int>(std::lower_bound(
                              constants.begin(), constants.end(),
                              q1.core.term(id).value()) -
                          constants.begin())};
  }
  std::vector<OrderAxiom> axioms;
  axioms.reserve(q1.comparisons.size());
  for (const IdComparison& c : q1.comparisons) {
    axioms.push_back({term_of[c.lhs], c.op, term_of[c.rhs]});
  }
  CanonicalFreezer freezer(q1);
  std::vector<uint32_t> var_reps;
  var_reps.reserve(variable_ids.size());
  for (const int id : variable_ids) var_reps.push_back(freezer.TermRepId(id));
  const PreparedQuery* const rhs[] = {&q2};
  return ContainedOnCanonicalDatabases(&freezer, var_reps, constants, axioms,
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

namespace {

/// FindImpliedContainmentMapping's backtracking search over q2's body
/// atoms in order, with mu on a binding trail over q2's term ids.
class ImpliedMappingSearch {
 public:
  ImpliedMappingSearch(IdQuery* q1, const IdQuery& q2, int64_t budget)
      : q1_(*q1), q2_(q2), budget_(budget) {}

  MappingSearch Run() {
    if (q1_.head.size() != q2_.head.size()) return MappingSearch::kNotFound;
    pred_.assign(q2_.preds.size(), -1);
    for (size_t p = 0; p < q2_.preds.size(); ++p) {
      for (size_t p1 = 0; p1 < q1_.preds.size(); ++p1) {
        if (q1_.preds[p1] == q2_.preds[p]) pred_[p] = static_cast<int>(p1);
      }
    }
    mu_.Reset(static_cast<size_t>(q2_.core.size()));
    for (int id = 0; id < q2_.core.size(); ++id) {
      if (q2_.core.term(id).IsConstant()) {
        mu_.Bind(id, q1_.core.Intern(q2_.core.term(id)));
      }
    }
    for (size_t i = 0; i < q2_.head.size(); ++i) {
      if (!Unify(q2_.head[i], q1_.head[i])) return MappingSearch::kNotFound;
    }
    if (Search(0)) return MappingSearch::kFound;
    return steps_ > budget_ ? MappingSearch::kBudgetExhausted
                            : MappingSearch::kNotFound;
  }

 private:
  /// Binds q2 term `t2` to q1 term `t1`, or checks an existing binding.
  bool Unify(int t2, int t1) {
    const int32_t bound = mu_.Get(t2);
    if (bound == BindingTrail::kUnbound) {
      mu_.Bind(t2, t1);
      return true;
    }
    return bound == t1;
  }

  /// Maps q2's atoms from `next` on; true once a complete mapping's
  /// comparison image is implied.
  bool Search(size_t next) {
    if (++steps_ > budget_) return false;
    if (next == q2_.body.size()) return ImageImplied();
    const IdAtom& atom = q2_.body[next];
    if (pred_[atom.pred] < 0) return false;
    for (const IdAtom& target : q1_.body) {
      if (target.pred != pred_[atom.pred] ||
          target.args.size() != atom.args.size()) {
        continue;
      }
      const size_t mark = mu_.Mark();
      bool ok = true;
      for (size_t k = 0; k < atom.args.size() && ok; ++k) {
        ok = Unify(atom.args[k], target.args[k]);
      }
      if (ok && Search(next + 1)) return true;
      mu_.UndoTo(mark);
      if (steps_ > budget_) return false;
    }
    return false;
  }

  /// beta1 |= mu(beta2).  A comparison variable of q2 outside its head
  /// and body is unmapped; the search then proves nothing.
  bool ImageImplied() {
    for (const IdComparison& c : q2_.comparisons) {
      const int32_t lhs = mu_.Get(c.lhs);
      const int32_t rhs = mu_.Get(c.rhs);
      if (lhs == BindingTrail::kUnbound || rhs == BindingTrail::kUnbound ||
          !q1_.core.Implies(q1_.comparisons, -1, {lhs, c.op, rhs})) {
        return false;
      }
    }
    return true;
  }

  IdQuery& q1_;
  const IdQuery& q2_;
  const int64_t budget_;
  int64_t steps_ = 0;
  std::vector<int> pred_;  // q2 predicate id -> q1's, or -1
  BindingTrail mu_;        // q2 term id -> q1 term id
};

}  // namespace

MappingSearch FindImpliedContainmentMapping(IdQuery* q1, const IdQuery& q2,
                                            int64_t budget) {
  return ImpliedMappingSearch(q1, q2, budget).Run();
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
  return ContainedOnCanonicalDatabases(q, constants, rhs, stats);
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

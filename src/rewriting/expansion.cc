#include "rewriting/expansion.h"

#include <string>

#include "constraints/ac_solver.h"
#include "containment/homomorphism.h"
#include "obs/metrics.h"

namespace cqac {

ConjunctiveQuery Expand(const ConjunctiveQuery& rewriting,
                        const ViewSet& views) {
  std::vector<Atom> body;
  std::vector<Comparison> comparisons = rewriting.comparisons();
  int counter = 0;
  for (const Atom& subgoal : rewriting.body()) {
    const ConjunctiveQuery* view = views.Find(subgoal.predicate());
    if (view == nullptr) {
      body.push_back(subgoal);  // Base relation; copy through.
      continue;
    }
    // Rename the whole view apart, then unify its head with the subgoal.
    const std::string prefix = "_e" + std::to_string(counter++) + "_";
    const ConjunctiveQuery renamed = view->RenameVariables(prefix);

    Substitution theta;  // view head var -> subgoal argument.
    const int arity = std::min(renamed.head().arity(), subgoal.arity());
    for (int i = 0; i < arity; ++i) {
      const Term& head_term = renamed.head().args()[i];
      const Term& arg = subgoal.args()[i];
      if (head_term.IsConstant()) {
        // Head constant: the subgoal argument must equal it.
        if (arg != head_term) {
          comparisons.push_back(Comparison(arg, CompOp::kEq, head_term));
        }
        continue;
      }
      if (theta.IsBound(head_term.name())) {
        // Repeated head variable: equate this argument with the first one.
        const Term& first = theta.Lookup(head_term.name());
        if (first != arg) {
          comparisons.push_back(Comparison(first, CompOp::kEq, arg));
        }
      } else {
        theta.Bind(head_term.name(), arg);
      }
    }
    for (const Atom& view_atom : renamed.body()) {
      body.push_back(theta.Apply(view_atom));
    }
    for (const Comparison& view_comp : renamed.comparisons()) {
      comparisons.push_back(theta.Apply(view_comp));
    }
  }
  return ConjunctiveQuery(rewriting.head(), std::move(body),
                          std::move(comparisons));
}

UnionQuery Expand(const UnionQuery& rewriting, const ViewSet& views) {
  UnionQuery out;
  for (const ConjunctiveQuery& disjunct : rewriting.disjuncts()) {
    out.Add(Expand(disjunct, views));
  }
  return out;
}

std::optional<ConjunctiveQuery> SimplifyQuery(const ConjunctiveQuery& q) {
  const std::optional<Substitution> forced =
      AcSolver::ForcedEqualities(q.comparisons());
  if (!forced.has_value()) return std::nullopt;  // Unsatisfiable.
  ConjunctiveQuery collapsed = q.ApplySubstitution(*forced);
  std::vector<Comparison> cleaned =
      AcSolver::RemoveRedundant(collapsed.comparisons());
  ConjunctiveQuery result(collapsed.head(), collapsed.body(),
                          std::move(cleaned));
  result = FoldExistentialVariables(result.Deduplicated());
  return result;
}

namespace {

/// Backtracking search for a folding homomorphism: maps every body atom
/// into `body` minus the atom at `victim`, extending `theta`.  Atoms are
/// chosen most-constrained-first (most already-bound variables), which
/// keeps the branching factor near one on chain-shaped bodies even when
/// all atoms share a predicate.  At the leaf, checks that the query's
/// comparisons imply their own image under theta.  `budget` bounds
/// unification attempts; exhaustion means "no fold found".
bool SearchFold(const std::vector<Atom>& body,
                const std::vector<Comparison>& comparisons,
                std::vector<bool>& mapped, int remaining, size_t victim,
                const Substitution& theta, int* budget, Substitution* out) {
  if (remaining == 0) {
    for (const Comparison& c : comparisons) {
      if (!AcSolver::Implies(comparisons, theta.Apply(c))) return false;
    }
    *out = theta;
    return true;
  }
  // Pick the unmapped atom with the most bound variables.
  int best = -1;
  int best_bound = -1;
  for (size_t i = 0; i < body.size(); ++i) {
    if (mapped[i]) continue;
    int bound = 0;
    for (const Term& t : body[i].args()) {
      if (t.IsConstant() || theta.IsBound(t.name())) ++bound;
    }
    if (bound > best_bound) {
      best_bound = bound;
      best = static_cast<int>(i);
    }
  }
  mapped[best] = true;
  for (size_t target = 0; target < body.size(); ++target) {
    if (target == victim) continue;
    if (--*budget <= 0) break;
    std::optional<Substitution> extended =
        UnifyAtomOnto(body[best], body[target], theta);
    if (!extended.has_value()) continue;
    if (SearchFold(body, comparisons, mapped, remaining - 1, victim,
                   *extended, budget, out)) {
      mapped[best] = false;
      return true;
    }
  }
  mapped[best] = false;
  return false;
}

/// Cheap pre-pass: folds a single existential variable x onto a term t
/// when every subgoal containing x maps into the body and every
/// comparison containing x stays implied.  Handles the bulk of the
/// redundancy before the full homomorphism search runs.
bool TrySingleVariableFold(ConjunctiveQuery* current) {
  const std::vector<std::string> candidates =
      current->NondistinguishedVariables();
  std::vector<Term> targets;
  for (const Atom& a : current->body()) {
    for (const Term& t : a.args()) {
      if (std::find(targets.begin(), targets.end(), t) == targets.end()) {
        targets.push_back(t);
      }
    }
  }
  for (const std::string& x : candidates) {
    const Term x_term = Term::Variable(x);
    for (const Term& target : targets) {
      if (target == x_term) continue;
      Substitution theta;
      theta.Bind(x, target);
      bool foldable = true;
      for (const Atom& a : current->body()) {
        if (std::find(a.args().begin(), a.args().end(), x_term) ==
            a.args().end()) {
          continue;
        }
        const Atom image = theta.Apply(a);
        if (std::find(current->body().begin(), current->body().end(),
                      image) == current->body().end()) {
          foldable = false;
          break;
        }
      }
      if (!foldable) continue;
      for (const Comparison& c : current->comparisons()) {
        if (c.lhs() != x_term && c.rhs() != x_term) continue;
        if (!AcSolver::Implies(current->comparisons(), theta.Apply(c))) {
          foldable = false;
          break;
        }
      }
      if (!foldable) continue;
      const ConjunctiveQuery folded = current->ApplySubstitution(theta);
      *current = ConjunctiveQuery(
                     folded.head(), folded.body(),
                     AcSolver::RemoveRedundant(folded.comparisons()))
                     .Deduplicated();
      return true;
    }
  }
  return false;
}

}  // namespace

ConjunctiveQuery FoldExistentialVariables(const ConjunctiveQuery& q) {
  ConjunctiveQuery current = q.Deduplicated();
  // Fast single-variable folds first.
  while (TrySingleVariableFold(&current)) {
  }
  bool changed = true;
  while (changed) {
    changed = false;
    if (current.body().size() <= 1) break;
    // The homomorphism must fix the head: seed with the identity on the
    // head variables.
    Substitution seed;
    for (const std::string& hv : current.HeadVariables()) {
      seed.Bind(hv, Term::Variable(hv));
    }
    for (size_t victim = 0; victim < current.body().size(); ++victim) {
      int budget = 50000;
      Substitution theta;
      std::vector<bool> mapped(current.body().size(), false);
      if (!SearchFold(current.body(), current.comparisons(), mapped,
                      static_cast<int>(current.body().size()), victim, seed,
                      &budget, &theta)) {
        // An exhausted budget means "no fold found", not "no fold
        // exists": the result stays equivalent but may keep redundant
        // atoms.  Counted so the bound is never hit silently.
        if (budget <= 0) {
          static obs::Counter& exhausted =
              obs::MetricsRegistry::Global().counter(
                  "simplify.fold_budget_exhausted");
          exhausted.Add(1);
        }
        continue;
      }
      const ConjunctiveQuery folded = current.ApplySubstitution(theta);
      current = ConjunctiveQuery(
                    folded.head(), folded.body(),
                    AcSolver::RemoveRedundant(folded.comparisons()))
                    .Deduplicated();
      while (TrySingleVariableFold(&current)) {
      }
      changed = true;
      break;
    }
  }
  return current;
}

}  // namespace cqac

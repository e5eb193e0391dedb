#include "rewriting/expansion.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

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

namespace {

/// Backtracking search for a folding homomorphism: maps every body atom
/// into `body` minus the atom at `victim`, extending `theta`.  Atoms are
/// chosen most-constrained-first (most already-bound variables), which
/// keeps the branching factor near one on chain-shaped bodies even when
/// all atoms share a predicate.  At the leaf, checks that the query's
/// comparisons imply their own image under theta, counting each leaf
/// check in `*leaf_checks`.  `budget` bounds unification attempts;
/// exhaustion means "no fold found".
bool SearchFold(const std::vector<Atom>& body,
                const std::vector<Comparison>& comparisons,
                std::vector<bool>& mapped, int remaining, size_t victim,
                const Substitution& theta, int* budget, Substitution* out,
                int64_t* leaf_checks) {
  if (remaining == 0) {
    for (const Comparison& c : comparisons) {
      ++*leaf_checks;
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
                   *extended, budget, out, leaf_checks)) {
      mapped[best] = false;
      return true;
    }
  }
  mapped[best] = false;
  return false;
}

/// An ordinary subgoal over the ids of an AcCore term table.
struct IdAtom {
  int pred;
  std::vector<int> args;

  friend bool operator==(const IdAtom& a, const IdAtom& b) {
    return a.pred == b.pred && a.args == b.args;
  }
};

/// One simplification: the query interned once into an AcCore term table
/// (atoms become predicate and argument ids, comparisons id triples), so
/// that forced-equality collapse, redundancy removal and every
/// single-variable fold run on int compares over the same table, without
/// copying the query.  Folds only map variables onto terms already in the
/// table, so the table never grows after construction (see AcCore's
/// term-table invariant).
///
/// The fold order defines the output, which is the Phase-2 containment
/// check's input and must stay byte-stable: candidates are the
/// nondistinguished body variables in first-occurrence order, targets the
/// distinct body terms in first-occurrence order, and after the first
/// successful fold the query is cleaned (RemoveRedundant, then
/// deduplication) and the scan restarts.
class Simplifier {
 public:
  explicit Simplifier(const ConjunctiveQuery& q) : head_pred_(q.name()) {
    for (const Term& t : q.head().args()) head_.push_back(core_.Intern(t));
    body_.reserve(q.body().size());
    for (const Atom& a : q.body()) {
      IdAtom atom{PredId(a.predicate()), {}};
      atom.args.reserve(a.args().size());
      for (const Term& t : a.args()) atom.args.push_back(core_.Intern(t));
      body_.push_back(std::move(atom));
    }
    comparisons_.reserve(q.comparisons().size());
    for (const Comparison& c : q.comparisons()) {
      comparisons_.push_back(core_.Intern(c));
    }
  }

  /// Applies the equalities forced by the comparisons (each term onto its
  /// component's representative) and drops the comparisons implied by the
  /// rest.  Returns false when the comparisons are unsatisfiable.
  bool Collapse() {
    if (!core_.ForcedEqualities(comparisons_, &image_)) return false;
    Substitute();
    core_.RemoveRedundant(&comparisons_);
    return true;
  }

  /// FoldExistentialVariables on the interned query: single-variable folds
  /// to a fixpoint, then the budgeted homomorphism search per victim atom.
  void Fold() {
    Deduplicate();
    while (FoldOneVariable()) {
    }
    bool changed = true;
    while (changed) {
      changed = false;
      if (body_.size() <= 1) break;
      const ConjunctiveQuery current = ToQuery();
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
                        &budget, &theta, &search_leaf_checks_)) {
          // An exhausted budget means "no fold found", not "no fold
          // exists": the result stays equivalent but may keep redundant
          // atoms.  Counted so the bound is never hit silently.
          if (budget <= 0) ++budget_exhausted_;
          continue;
        }
        // theta maps body variables onto body terms, all in the table.
        std::vector<std::pair<int, int>> bindings;
        for (const auto& [var, term] : theta.bindings()) {
          bindings.push_back(
              {core_.Intern(Term::Variable(var)), core_.Intern(term)});
        }
        ResetImage();
        for (const auto& [from, to] : bindings) image_[from] = to;
        Substitute();
        Clean();
        while (FoldOneVariable()) {
        }
        changed = true;
        break;
      }
    }
  }

  ConjunctiveQuery ToQuery() const {
    std::vector<Term> head;
    head.reserve(head_.size());
    for (const int t : head_) head.push_back(core_.term(t));
    std::vector<Atom> body;
    body.reserve(body_.size());
    for (const IdAtom& a : body_) {
      std::vector<Term> args;
      args.reserve(a.args.size());
      for (const int t : a.args) args.push_back(core_.term(t));
      body.emplace_back(preds_[a.pred], std::move(args));
    }
    std::vector<Comparison> comparisons;
    comparisons.reserve(comparisons_.size());
    for (const IdComparison& c : comparisons_) {
      comparisons.push_back(core_.ToComparison(c));
    }
    return ConjunctiveQuery(Atom(head_pred_, std::move(head)), std::move(body),
                            std::move(comparisons));
  }

  /// Adds this call's tallies to the simplify.* counters, once.
  void Publish() const {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    static obs::Counter& candidates =
        registry.counter("simplify.fold_candidates");
    static obs::Counter& single_folds =
        registry.counter("simplify.single_folds");
    static obs::Counter& sat_checks = registry.counter("simplify.sat_checks");
    static obs::Counter& leaf_checks =
        registry.counter("simplify.search_leaf_checks");
    static obs::Counter& exhausted =
        registry.counter("simplify.fold_budget_exhausted");
    candidates.Add(fold_candidates_);
    single_folds.Add(single_folds_);
    sat_checks.Add(core_.checks());
    leaf_checks.Add(search_leaf_checks_);
    if (budget_exhausted_ > 0) exhausted.Add(budget_exhausted_);
  }

 private:
  int PredId(const std::string& name) {
    for (size_t id = 0; id < preds_.size(); ++id) {
      if (preds_[id] == name) return static_cast<int>(id);
    }
    preds_.push_back(name);
    return static_cast<int>(preds_.size()) - 1;
  }

  void ResetImage() {
    image_.resize(core_.size());
    for (int t = 0; t < core_.size(); ++t) image_[t] = t;
  }

  /// Maps every term id t of head, body and comparisons to image_[t].
  void Substitute() {
    for (int& t : head_) t = image_[t];
    for (IdAtom& a : body_) {
      for (int& t : a.args) t = image_[t];
    }
    for (IdComparison& c : comparisons_) {
      c.lhs = image_[c.lhs];
      c.rhs = image_[c.rhs];
    }
  }

  /// Drops duplicate subgoals and comparisons, keeping first occurrences
  /// (ConjunctiveQuery::Deduplicated).
  void Deduplicate() {
    Unique(&body_);
    Unique(&comparisons_);
  }

  template <typename T>
  static void Unique(std::vector<T>* items) {
    size_t kept = 0;
    for (size_t i = 0; i < items->size(); ++i) {
      if (std::find(items->begin(), items->begin() + kept, (*items)[i]) ==
          items->begin() + kept) {
        if (kept != i) (*items)[kept] = std::move((*items)[i]);
        ++kept;
      }
    }
    items->resize(kept);
  }

  void Clean() {
    core_.RemoveRedundant(&comparisons_);
    Deduplicate();
  }

  /// True when `image` — `a` with x replaced by t — is a subgoal.
  bool ImageInBody(const IdAtom& a, int x, int t) const {
    for (const IdAtom& b : body_) {
      if (b.pred != a.pred || b.args.size() != a.args.size()) continue;
      bool equal = true;
      for (size_t k = 0; k < a.args.size() && equal; ++k) {
        equal = (a.args[k] == x ? t : a.args[k]) == b.args[k];
      }
      if (equal) return true;
    }
    return false;
  }

  /// Folds a single existential variable x onto a term t when every
  /// subgoal containing x maps into the body and every comparison
  /// containing x stays implied.  Handles the bulk of the redundancy
  /// before the full homomorphism search runs.
  bool FoldOneVariable() {
    std::vector<int> candidates;
    std::vector<int> targets;
    for (const IdAtom& a : body_) {
      for (const int t : a.args) {
        if (std::find(targets.begin(), targets.end(), t) != targets.end()) {
          continue;
        }
        targets.push_back(t);
        if (core_.term(t).IsVariable() &&
            std::find(head_.begin(), head_.end(), t) == head_.end()) {
          candidates.push_back(t);
        }
      }
    }
    for (const int x : candidates) {
      for (const int target : targets) {
        if (target == x) continue;
        ++fold_candidates_;
        if (!Foldable(x, target)) continue;
        ++single_folds_;
        ResetImage();
        image_[x] = target;
        Substitute();
        Clean();
        return true;
      }
    }
    return false;
  }

  bool Foldable(int x, int t) {
    for (const IdAtom& a : body_) {
      if (std::find(a.args.begin(), a.args.end(), x) == a.args.end()) continue;
      if (!ImageInBody(a, x, t)) return false;
    }
    for (const IdComparison& c : comparisons_) {
      if (c.lhs != x && c.rhs != x) continue;
      const IdComparison image{c.lhs == x ? t : c.lhs, c.op,
                               c.rhs == x ? t : c.rhs};
      if (!core_.Implies(comparisons_, -1, image)) return false;
    }
    return true;
  }

  AcCore core_;
  std::string head_pred_;
  std::vector<int> head_;
  std::vector<std::string> preds_;
  std::vector<IdAtom> body_;
  std::vector<IdComparison> comparisons_;
  std::vector<int> image_;  // per term id: its image under the substitution

  int64_t fold_candidates_ = 0;
  int64_t single_folds_ = 0;
  int64_t search_leaf_checks_ = 0;
  int64_t budget_exhausted_ = 0;
};

}  // namespace

std::optional<ConjunctiveQuery> SimplifyQuery(const ConjunctiveQuery& q) {
  Simplifier simplifier(q);
  if (!simplifier.Collapse()) {  // Unsatisfiable.
    simplifier.Publish();
    return std::nullopt;
  }
  simplifier.Fold();
  simplifier.Publish();
  return simplifier.ToQuery();
}

ConjunctiveQuery FoldExistentialVariables(const ConjunctiveQuery& q) {
  Simplifier simplifier(q);
  simplifier.Fold();
  simplifier.Publish();
  return simplifier.ToQuery();
}

}  // namespace cqac

#include "rewriting/expansion.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "constraints/ac_solver.h"
#include "containment/binding_trail.h"
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
    // One substitution over the view's own names: head variables onto the
    // subgoal's arguments, any other i-th view variable onto `_e<k>_<i>`.
    Substitution theta;
    const int arity = std::min(view->head().arity(), subgoal.arity());
    for (int i = 0; i < arity; ++i) {
      const Term& head_term = view->head().args()[i];
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
    const std::string prefix = "_e" + std::to_string(counter++) + "_";
    const std::vector<std::string> variables = view->AllVariables();
    for (size_t i = 0; i < variables.size(); ++i) {
      if (!theta.IsBound(variables[i])) {
        theta.Bind(variables[i], Term::Variable(prefix + std::to_string(i)));
      }
    }
    for (const Atom& view_atom : view->body()) {
      body.push_back(theta.Apply(view_atom));
    }
    for (const Comparison& view_comp : view->comparisons()) {
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
/// that forced-equality collapse, redundancy removal, every single-variable
/// fold and the budgeted fold search run on int compares over the same
/// table, without copying the query.  Folds only map variables onto terms
/// already in the table, so the table never grows after construction (see
/// AcCore's term-table invariant).
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
    while (body_.size() > 1 && FoldAtom()) {
      Substitute();
      Clean();
      while (FoldOneVariable()) {
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

  /// Finds a homomorphism theta that fixes the head and maps the body into
  /// itself minus one victim atom (victims in body order) and writes it
  /// into image_.  An exhausted budget means "no fold found", not "no fold
  /// exists"; it is counted so the bound is never hit silently.
  bool FoldAtom() {
    for (size_t victim = 0; victim < body_.size(); ++victim) {
      theta_.Reset(core_.size());
      for (const int t : head_) {
        if (!theta_.IsBound(t)) theta_.Bind(t, t);
      }
      mapped_.assign(body_.size(), false);
      int budget = 50000;
      if (SearchFold(body_.size(), victim, &budget)) {
        ResetImage();
        for (const uint32_t x : theta_.trail()) image_[x] = theta_.Get(x);
        return true;
      }
      if (budget <= 0) ++budget_exhausted_;
    }
    return false;
  }

  /// Extends theta_ until every body atom maps into the body minus the
  /// atom at `victim`.  The unmapped atom with the most constant or bound
  /// arguments goes first (lowest index on ties), which keeps the branching
  /// factor near one on chain-shaped bodies; targets go in body order, one
  /// budget unit per unification attempt.  The leaf checks that the
  /// comparisons imply their image.  On success theta_ keeps the fold.
  bool SearchFold(size_t remaining, size_t victim, int* budget) {
    if (remaining == 0) {
      for (const IdComparison& c : comparisons_) {
        ++search_leaf_checks_;
        const IdComparison image{Theta(c.lhs), c.op, Theta(c.rhs)};
        if (!core_.Implies(comparisons_, -1, image)) return false;
      }
      return true;
    }
    size_t best = 0;
    int best_bound = -1;
    for (size_t i = 0; i < body_.size(); ++i) {
      if (mapped_[i]) continue;
      int bound = 0;
      for (const int t : body_[i].args) {
        if (core_.term(t).IsConstant() || theta_.IsBound(t)) ++bound;
      }
      if (bound > best_bound) {
        best_bound = bound;
        best = i;
      }
    }
    mapped_[best] = true;
    bool found = false;
    for (size_t target = 0; target < body_.size() && !found; ++target) {
      if (target == victim) continue;
      if (--*budget <= 0) break;
      const size_t mark = theta_.Mark();
      found = Unify(body_[best], body_[target]) &&
              SearchFold(remaining - 1, victim, budget);
      if (!found) theta_.UndoTo(mark);
    }
    mapped_[best] = false;
    return found;
  }

  /// Extends theta_ to map `from` onto `to`; false on a clash, possibly
  /// leaving partial bindings for the caller to undo.
  bool Unify(const IdAtom& from, const IdAtom& to) {
    if (from.pred != to.pred || from.args.size() != to.args.size()) {
      return false;
    }
    for (size_t k = 0; k < from.args.size(); ++k) {
      const int f = from.args[k];
      if (!core_.term(f).IsConstant() && !theta_.IsBound(f)) {
        theta_.Bind(f, to.args[k]);
      }
      if (Theta(f) != to.args[k]) return false;
    }
    return true;
  }

  /// The image of term id t under theta_ (constants map to themselves).
  int Theta(int t) const { return theta_.IsBound(t) ? theta_.Get(t) : t; }

  AcCore core_;
  std::string head_pred_;
  std::vector<int> head_;
  std::vector<std::string> preds_;
  std::vector<IdAtom> body_;
  std::vector<IdComparison> comparisons_;
  std::vector<int> image_;  // per term id: its image under the substitution
  BindingTrail theta_;      // the fold search's theta over term ids
  std::vector<bool> mapped_;  // per body atom: mapped by the search so far

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

#include "rewriting/expansion.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "constraints/ac_solver.h"
#include "containment/binding_trail.h"
#include "obs/metrics.h"

namespace cqac {

ViewTemplates::ViewTemplates(const ViewSet& views) {
  views_.reserve(views.views().size());
  for (const ConjunctiveQuery& view : views.views()) {
    const std::vector<std::string> variables = view.AllVariables();
    auto arg = [&variables](const Term& t) {
      if (t.IsConstant()) return Arg{-1, t.value()};
      const auto it = std::find(variables.begin(), variables.end(), t.name());
      return Arg{static_cast<int>(it - variables.begin()), Rational()};
    };
    View v;
    v.name = view.name();
    v.num_slots = static_cast<int>(variables.size());
    for (const Term& t : view.head().args()) v.head.push_back(arg(t));
    for (const Atom& a : view.body()) {
      SlotAtom atom{a.predicate(), {}};
      for (const Term& t : a.args()) atom.args.push_back(arg(t));
      v.body.push_back(std::move(atom));
    }
    for (const Comparison& c : view.comparisons()) {
      v.comparisons.push_back({arg(c.lhs()), c.op(), arg(c.rhs())});
    }
    views_.push_back(std::move(v));
  }
}

const ViewTemplates::View* ViewTemplates::Find(const std::string& name) const {
  for (const View& v : views_) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

IdQuery ExpandToIds(const ConjunctiveQuery& rewriting,
                    const ViewTemplates& views) {
  IdQuery out;
  out.head_pred = rewriting.name();
  AcCore& core = out.core;
  for (const Term& t : rewriting.head().args()) {
    out.head.push_back(core.Intern(t));
  }
  for (const Comparison& c : rewriting.comparisons()) {
    out.comparisons.push_back(core.Intern(c));
  }
  std::vector<int> args;
  std::vector<int> slot_ids;  // slot -> term id, -1 while unbound
  int counter = 0;
  for (const Atom& subgoal : rewriting.body()) {
    args.clear();
    for (const Term& t : subgoal.args()) args.push_back(core.Intern(t));
    const ViewTemplates::View* view = views.Find(subgoal.predicate());
    if (view == nullptr) {  // Base relation; copy through.
      out.body.push_back({out.PredId(subgoal.predicate()), args});
      continue;
    }
    auto id_of = [&core, &slot_ids](const ViewTemplates::Arg& a) {
      return a.slot >= 0 ? slot_ids[a.slot]
                         : core.Intern(Term::Constant(a.value));
    };
    slot_ids.assign(view->num_slots, -1);
    const size_t arity = std::min(view->head.size(), args.size());
    for (size_t i = 0; i < arity; ++i) {
      const ViewTemplates::Arg& head_arg = view->head[i];
      if (head_arg.slot < 0) {
        // Head constant: the subgoal argument must equal it.
        const int constant = id_of(head_arg);
        if (args[i] != constant) {
          out.comparisons.push_back({args[i], CompOp::kEq, constant});
        }
      } else if (slot_ids[head_arg.slot] >= 0) {
        // Repeated head variable: equate this argument with the first one.
        if (slot_ids[head_arg.slot] != args[i]) {
          out.comparisons.push_back(
              {slot_ids[head_arg.slot], CompOp::kEq, args[i]});
        }
      } else {
        slot_ids[head_arg.slot] = args[i];
      }
    }
    const std::string prefix = "_e" + std::to_string(counter++) + "_";
    for (int i = 0; i < view->num_slots; ++i) {
      if (slot_ids[i] < 0) {
        slot_ids[i] = core.AddVariable(prefix + std::to_string(i));
      }
    }
    for (const ViewTemplates::SlotAtom& a : view->body) {
      IdAtom atom{out.PredId(a.predicate), {}};
      atom.args.reserve(a.args.size());
      for (const ViewTemplates::Arg& t : a.args) atom.args.push_back(id_of(t));
      out.body.push_back(std::move(atom));
    }
    for (const ViewTemplates::SlotComparison& c : view->comparisons) {
      out.comparisons.push_back({id_of(c.lhs), c.op, id_of(c.rhs)});
    }
  }
  return out;
}

ConjunctiveQuery Expand(const ConjunctiveQuery& rewriting,
                        const ViewSet& views) {
  // Compile only the views the subgoals name.
  ViewSet used;
  for (const Atom& subgoal : rewriting.body()) {
    const ConjunctiveQuery* view = views.Find(subgoal.predicate());
    if (view != nullptr && used.Find(view->name()) == nullptr) used.Add(*view);
  }
  return ExpandToIds(rewriting, ViewTemplates(used)).ToQuery();
}

UnionQuery Expand(const UnionQuery& rewriting, const ViewSet& views) {
  const ViewTemplates templates(views);
  UnionQuery out;
  for (const ConjunctiveQuery& disjunct : rewriting.disjuncts()) {
    out.Add(ExpandToIds(disjunct, templates).ToQuery());
  }
  return out;
}

namespace {

/// One simplification of a query in id form (IdQuery), in place:
/// forced-equality collapse, redundancy removal, every single-variable
/// fold and the budgeted fold search run on int compares over the query's
/// own term table.  Folds only map variables onto terms already in the
/// table, so the table never grows (see AcCore's term-table invariant).
///
/// The fold order defines the output, which is the Phase-2 containment
/// check's input and must stay byte-stable: candidates are the
/// nondistinguished body variables in first-occurrence order, targets the
/// distinct body terms in first-occurrence order, and after the first
/// successful fold the query is cleaned (RemoveRedundant, then
/// deduplication) and the scan restarts.
class Simplifier {
 public:
  explicit Simplifier(IdQuery* q)
      : core_(q->core), head_(q->head), body_(q->body),
        comparisons_(q->comparisons) {}

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

  AcCore& core_;
  std::vector<int>& head_;
  std::vector<IdAtom>& body_;
  std::vector<IdComparison>& comparisons_;
  std::vector<int> image_;  // per term id: its image under the substitution
  BindingTrail theta_;      // the fold search's theta over term ids
  std::vector<bool> mapped_;  // per body atom: mapped by the search so far

  int64_t fold_candidates_ = 0;
  int64_t single_folds_ = 0;
  int64_t search_leaf_checks_ = 0;
  int64_t budget_exhausted_ = 0;
};

}  // namespace

bool SimplifyIds(IdQuery* q) {
  Simplifier simplifier(q);
  const bool satisfiable = simplifier.Collapse();
  if (satisfiable) simplifier.Fold();
  simplifier.Publish();
  return satisfiable;
}

std::optional<ConjunctiveQuery> SimplifyQuery(const ConjunctiveQuery& q) {
  IdQuery ids(q);
  if (!SimplifyIds(&ids)) return std::nullopt;
  return ids.ToQuery();
}

ConjunctiveQuery FoldExistentialVariables(const ConjunctiveQuery& q) {
  IdQuery ids(q);
  Simplifier simplifier(&ids);
  simplifier.Fold();
  simplifier.Publish();
  return ids.ToQuery();
}

}  // namespace cqac

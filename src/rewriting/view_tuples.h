#ifndef CQAC_REWRITING_VIEW_TUPLES_H_
#define CQAC_REWRITING_VIEW_TUPLES_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ast/atom.h"
#include "engine/canonical.h"
#include "engine/evaluate.h"
#include "rewriting/view_set.h"

namespace cqac {

/// The view tuples of one canonical database (the paper's `T_i(V)`,
/// Section 2.5 / Phase 1 step 3.1): for each view, both the ground result
/// of applying the view definition to the canonical database and its
/// unfrozen form over the query's variables.
struct ViewTuples {
  /// Ground tuples per view name: `V(D_i)` as evaluated (comparisons of
  /// the view checked against the database's rational values, which
  /// realizes the paper's "the total order must satisfy the ACs of the
  /// views").
  std::map<std::string, std::vector<Tuple>> ground;

  /// Unfrozen tuples per view name: each value mapped back to its order
  /// block's representative term.
  std::map<std::string, std::vector<Atom>> unfrozen;

  /// Total number of ground tuples across all views.
  int64_t total = 0;

  bool empty() const { return total == 0; }
};

/// Applies every view to the canonical database and unfreezes the results.
ViewTuples ComputeViewTuples(const ViewSet& views,
                             const CanonicalDatabase& cdb);

/// Definition 2 of the paper: `more_relaxed` is a more relaxed form of
/// `tuple` iff there is a containment mapping from `more_relaxed` to
/// `tuple` (same predicate, variables mapped positionally and
/// consistently, constants fixed).  E.g. `v(A,B)` is a more relaxed form
/// of `v(A,A)` but not vice versa.
bool IsMoreRelaxedForm(const Atom& more_relaxed, const Atom& tuple);

/// The pruning test of Phase 1 step 3.4, grounded on the canonical
/// database: keeps an MCD view tuple iff, with the query's variables
/// frozen to their canonical values (fresh/existential variables free but
/// consistent), it matches some ground tuple that the view produced on the
/// database.  This is the canonical-database shadow of Definition 2 — the
/// matched ground tuple unfreezes to a `T_i(V)` member of which the MCD
/// tuple is a more relaxed form — and it additionally guarantees that the
/// Pre-Rewriting built from the kept tuples computes the query's frozen
/// head on the database (the paper's Lemma 2).
bool MatchesFrozenViewTuple(const Atom& mcd_tuple, const ViewTuples& tuples,
                            const CanonicalDatabase& cdb);

/// Compiled Phase-1 view evaluation over a CanonicalFreezer's flat
/// instance: one PreparedQuery per view, built once per run instead of
/// once per canonical database, with each view's ground output cached and
/// recomputed only when a relation the view references changed since the
/// view's last evaluation (the freezer's per-relation change epochs).
/// Under delta freezing, an order step that only moved variables absent
/// from a view's body costs that view nothing.
///
/// Ground outputs are identical to ComputeViewTuples' (same set-sorted
/// tuples per view); unfreezing is left to the caller, which typically
/// needs it for a small minority of databases.  Not thread-safe; use one
/// per thread alongside its freezer.
class ViewTupleEvaluator {
 public:
  explicit ViewTupleEvaluator(const ViewSet& views);

  /// Brings every view's cached output up to date with `freezer`'s current
  /// instance.  The freezer must be the same object across calls (change
  /// epochs are compared against it).
  void Refresh(const CanonicalFreezer& freezer);

  int view_count() const { return static_cast<int>(views_.size()); }
  const std::string& view_name(int i) const { return views_[i].name; }

  /// View `i`'s ground tuples on the last refreshed instance.
  const Relation& ground(int i) const { return views_[i].output; }

  /// Indices (ascending) of the views named `name`, or nullptr when none.
  const std::vector<int>* ViewsNamed(const std::string& name) const;

  /// Total ground tuples across all views (ViewTuples::total).
  int64_t total() const { return total_; }

 private:
  struct PerView {
    std::string name;
    PreparedQuery plan;
    /// Distinct (predicate, arity) pairs of the view's body.
    std::vector<std::pair<std::string, int>> referenced;
    /// referenced resolved against the freezer's instance (stable: the
    /// instance's relation set is fixed at freezer construction).
    std::vector<uint32_t> rel_ids;
    /// The plan's subgoal relations in the same instance.
    std::vector<uint32_t> plan_relations;
    Relation output;
    uint64_t evaluated_epoch = 0;  // 0 = never evaluated
  };

  std::vector<PerView> views_;
  std::map<std::string, std::vector<int>> by_name_;
  PreparedQuery::Scratch scratch_;
  int64_t total_ = 0;
  bool rel_ids_resolved_ = false;
};

/// Indexed replacement for calling MatchesFrozenViewTuple once per MCD
/// candidate: the candidates' view tuples are compiled once per run into
/// (pinned positions, fresh-variable equality classes) patterns, and each
/// canonical database builds, per distinct (view, pinned-position set), a
/// key-sorted index over the view's ground tuples — so a candidate probe
/// is one binary search plus consistency checks on the narrowed range,
/// instead of a scan of every ground tuple with per-position map lookups.
///
/// A tuple position is pinned when it holds a constant or a variable with
/// a freezer slot (a query body/head variable, frozen to its canonical
/// value); all other variables are MCD-fresh and only constrain matching
/// through repeated use.  Verdicts are identical to
/// MatchesFrozenViewTuple's.  Not thread-safe; use one per thread.
class FrozenTupleMatcher {
 public:
  /// Compiles `tuples` (typically the run's MCD view tuples, in MCD order)
  /// against `freezer`'s slot map.  The freezer must outlive the matcher
  /// and is re-read on every probe for the current frozen values.
  FrozenTupleMatcher(std::vector<Atom> tuples,
                     const CanonicalFreezer& freezer);

  /// Rebinds to the current canonical database; `ev` must have been
  /// refreshed against the constructor's freezer and must stay unchanged
  /// until the next BindDatabase.
  void BindDatabase(const ViewTupleEvaluator& ev);

  /// Whether tuples[i] matches some ground view tuple of the bound
  /// database (MatchesFrozenViewTuple semantics).
  bool Matches(size_t i);

 private:
  struct Position {
    enum Kind : uint8_t { kConst, kSlot, kFree };
    Kind kind;
    uint32_t slot = 0;  // freezer slot when kSlot
    Rational value;     // pinned constant when kConst
  };
  struct Pattern {
    std::vector<Position> positions;
    /// Positions sharing one fresh variable (classes of size >= 2 only).
    std::vector<std::vector<int>> equal_groups;
    int index_id = 0;
  };
  /// One shared index per distinct (view name, arity, pinned positions).
  struct IndexData {
    std::string name;
    int arity = 0;
    std::vector<int> pinned;  // ascending positions forming the key
    bool built = false;
    /// (key = values at pinned positions, ground tuple), sorted by key.
    std::vector<std::pair<std::vector<Rational>, const Tuple*>> entries;
  };

  void BuildIndex(IndexData* index);
  bool MatchesUncached(const Pattern& pattern);

  const CanonicalFreezer& freezer_;
  const ViewTupleEvaluator* ev_ = nullptr;
  std::vector<Pattern> patterns_;
  std::vector<IndexData> indexes_;
  std::vector<Rational> probe_;  // scratch key
  /// Tuples equal up to a renaming of their fresh variables have the same
  /// verdict on every database; they share a verdict class, probed once
  /// per BindDatabase.
  std::vector<int> class_of_;
  int num_classes_ = 0;
  std::vector<signed char> verdicts_;  // class -> -1 unknown / 0 / 1
};

}  // namespace cqac

#endif  // CQAC_REWRITING_VIEW_TUPLES_H_

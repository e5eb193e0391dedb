#ifndef CQAC_REWRITING_EXPANSION_H_
#define CQAC_REWRITING_EXPANSION_H_

#include <optional>
#include <string>
#include <vector>

#include "ast/query.h"
#include "constraints/id_query.h"
#include "rewriting/view_set.h"

namespace cqac {

/// The views of a ViewSet compiled once for expansion into term ids.  Each
/// view becomes a template over view-local slots, slot i standing for the
/// i-th variable of the view's AllVariables(): its head positions, its body
/// atoms and its comparisons, each argument a slot or a constant.
class ViewTemplates {
 public:
  ViewTemplates() = default;
  explicit ViewTemplates(const ViewSet& views);

  /// A template argument: slot `slot`, or the constant `value` when
  /// slot < 0.
  struct Arg {
    int slot;
    Rational value;
  };
  struct SlotAtom {
    std::string predicate;
    std::vector<Arg> args;
  };
  struct SlotComparison {
    Arg lhs;
    CompOp op;
    Arg rhs;
  };
  struct View {
    std::string name;
    std::vector<Arg> head;
    std::vector<SlotAtom> body;
    std::vector<SlotComparison> comparisons;
    int num_slots = 0;
  };

  /// The template of the first view named `name`, or nullptr.
  const View* Find(const std::string& name) const;

 private:
  std::vector<View> views_;
};

/// Expand (below) into term ids: the rewriting's own terms are interned,
/// then each view subgoal's template is written straight into the table.
/// Head slots map to the subgoal's argument ids; every other slot i of the
/// k-th view subgoal becomes a fresh variable `_e<k>_<i>`, appended
/// without a lookup.  The names are kept because the Simplifier's
/// representatives are the lexicographically least names, so they decide
/// the simplified output.
IdQuery ExpandToIds(const ConjunctiveQuery& rewriting,
                    const ViewTemplates& views);

/// SimplifyQuery on the id form, in place.  Returns false, leaving `q`
/// unchanged, when its comparisons are unsatisfiable.  Adds to the
/// simplify.* counters like SimplifyQuery.
bool SimplifyIds(IdQuery* q);

/// Expands a rewriting — a CQAC whose ordinary subgoals are view atoms —
/// into a CQAC over the base schema by inlining each view definition with
/// fresh nondistinguished variables.
///
/// For each view subgoal `v(t1..tn)`: the view's body is renamed apart and
/// its head variables are unified with the subgoal's arguments.  Repeated
/// head variables or head constants in the view definition (which arise
/// from exported-variable variants, e.g. `v1(X,X,W)` in the paper's
/// Example 6) induce equality comparisons between the corresponding
/// subgoal arguments.  The view's own comparisons are carried into the
/// expansion.
///
/// Subgoals whose predicate is not in `views` are treated as base
/// relations and copied through unchanged (so the function is harmless on
/// partially-rewritten queries).  The fresh variables are named
/// `_e<k>_<i>`; the rewriting must not use such names itself.  The result
/// is `ExpandToIds(rewriting, ViewTemplates(views)).ToQuery()`.
ConjunctiveQuery Expand(const ConjunctiveQuery& rewriting,
                        const ViewSet& views);

/// Expands every disjunct.
UnionQuery Expand(const UnionQuery& rewriting, const ViewSet& views);

/// Equivalence-preserving cleanup used after expansion: applies the
/// equalities forced by the comparisons (collapsing variables onto
/// representatives and constants), drops comparisons implied by the rest,
/// and deduplicates subgoals.  Returns nullopt when the comparisons are
/// unsatisfiable (the query computes nothing).
///
/// This mirrors the paper's Example 8, where
/// `PR1(A) :- r(X), s(A,A), A < 8, A <= X, X <= A` simplifies to
/// `PR1(A) :- r(A), s(A,A), A < 8`, and it is what keeps the Phase-2
/// canonical-database enumeration tractable.
std::optional<ConjunctiveQuery> SimplifyQuery(const ConjunctiveQuery& q);

/// Equivalence-preserving minimization of a CQAC by folding
/// homomorphisms, the comparison-aware analogue of conjunctive-query
/// minimization.  A substitution theta that (a) is the identity on the
/// head variables, (b) maps every ordinary subgoal onto a subgoal of the
/// query minus some victim atom, and (c) has its comparison image implied
/// by the query's comparisons, witnesses `q == theta(q)`:
///
///   * `theta(q) ⊑ q` because theta itself is a containment mapping whose
///     comparison image `theta(beta)` is trivially implied by
///     `theta(q)`'s own comparisons, and
///   * `q ⊑ theta(q)` because `theta(body) ⊆ body` makes the identity
///     work on every canonical database, with (c) covering the
///     comparisons.
///
/// Expansions of Pre-Rewritings are full of foldable material (each
/// redundant view tuple contributes a fresh copy of the view's body);
/// folding it away is what keeps the Phase-2 containment check's exponent
/// small.  The search per victim atom is budgeted; when the budget runs
/// out the atom is simply kept (correctness is unaffected).
ConjunctiveQuery FoldExistentialVariables(const ConjunctiveQuery& q);

}  // namespace cqac

#endif  // CQAC_REWRITING_EXPANSION_H_

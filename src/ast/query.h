#ifndef CQAC_AST_QUERY_H_
#define CQAC_AST_QUERY_H_

#include <iosfwd>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ast/atom.h"
#include "ast/comparison.h"
#include "ast/substitution.h"
#include "ast/value.h"

namespace cqac {

/// A conjunctive query with arithmetic comparisons (CQAC):
///
///   h(X̄) :- e1(X̄1), ..., ek(X̄k), C1, ..., Cm
///
/// where the `ei` are ordinary (relational) subgoals and the `Ci` are
/// arithmetic comparisons `A θ B` over variables and rational constants.
/// A plain conjunctive query (CQ) is the special case `m == 0`.
///
/// Head variables are "distinguished"; all other variables are
/// "nondistinguished" (existential).  The same class represents queries,
/// view definitions, and the conjuncts of rewritings.
class ConjunctiveQuery {
 public:
  ConjunctiveQuery() = default;
  ConjunctiveQuery(Atom head, std::vector<Atom> body,
                   std::vector<Comparison> comparisons = {})
      : head_(std::move(head)),
        body_(std::move(body)),
        comparisons_(std::move(comparisons)) {}

  const Atom& head() const { return head_; }
  const std::vector<Atom>& body() const { return body_; }
  const std::vector<Comparison>& comparisons() const { return comparisons_; }

  Atom& mutable_head() { return head_; }
  std::vector<Atom>& mutable_body() { return body_; }
  std::vector<Comparison>& mutable_comparisons() { return comparisons_; }

  /// The query's name (head predicate).
  const std::string& name() const { return head_.predicate(); }

  /// True when the query has no arithmetic comparisons (a plain CQ).
  bool IsPlainCQ() const { return comparisons_.empty(); }

  /// True when the head has no arguments.
  bool IsBoolean() const { return head_.args().empty(); }

  /// Distinct head (distinguished) variable names, in first-seen order.
  std::vector<std::string> HeadVariables() const;

  /// Distinct variable names occurring in ordinary subgoals, first-seen
  /// order.
  std::vector<std::string> BodyVariables() const;

  /// Distinct variable names occurring anywhere (head, body, comparisons),
  /// first-seen order.
  std::vector<std::string> AllVariables() const;

  /// Distinct constants occurring anywhere in the query (head, ordinary
  /// subgoals, and comparisons), in ascending order.
  std::vector<Rational> Constants() const;

  /// True when `var` occurs in the head.
  bool IsDistinguished(const std::string& var) const;

  /// Safety per the paper: every head variable occurs in some ordinary
  /// subgoal, and every variable used in a comparison occurs in some
  /// ordinary subgoal.
  bool IsSafe() const;

  /// The query with all comparisons removed (the paper's `Q0`).
  ConjunctiveQuery WithoutComparisons() const;

  /// Applies `s` to head, body, and comparisons.
  ConjunctiveQuery ApplySubstitution(const Substitution& s) const;

  /// A copy whose variables are consistently renamed to `prefix + i`
  /// (i = 0, 1, ...), guaranteeing disjointness from any query that uses a
  /// different prefix.  Returns the renaming through `*renaming_out` when
  /// non-null.
  ConjunctiveQuery RenameVariables(const std::string& prefix,
                                   Substitution* renaming_out = nullptr) const;

  /// Drops duplicate subgoals and duplicate comparisons (preserving order of
  /// first occurrence).  Logically a no-op for set semantics.
  ConjunctiveQuery Deduplicated() const;

  friend bool operator==(const ConjunctiveQuery& a, const ConjunctiveQuery& b) {
    return a.head_ == b.head_ && a.body_ == b.body_ &&
           a.comparisons_ == b.comparisons_;
  }
  friend bool operator!=(const ConjunctiveQuery& a, const ConjunctiveQuery& b) {
    return !(a == b);
  }

  /// Renders in the paper's notation:
  /// `q(X) :- a(X,Y), b(Y), X < 7`.
  std::string ToString() const;

 private:
  Atom head_;
  std::vector<Atom> body_;
  std::vector<Comparison> comparisons_;
};

std::ostream& operator<<(std::ostream& os, const ConjunctiveQuery& q);

/// A finite union of CQACs with a common head predicate and arity.  The
/// paper's target rewriting language (Theorem 2): even when a query has an
/// equivalent rewriting, a single CQAC may not suffice (Example 2).
class UnionQuery {
 public:
  UnionQuery() = default;
  explicit UnionQuery(std::vector<ConjunctiveQuery> disjuncts)
      : disjuncts_(std::move(disjuncts)) {}

  const std::vector<ConjunctiveQuery>& disjuncts() const { return disjuncts_; }
  std::vector<ConjunctiveQuery>& mutable_disjuncts() { return disjuncts_; }

  bool empty() const { return disjuncts_.empty(); }
  int size() const { return static_cast<int>(disjuncts_.size()); }

  void Add(ConjunctiveQuery q) { disjuncts_.push_back(std::move(q)); }

  /// Renders one disjunct per line.
  std::string ToString() const;

 private:
  std::vector<ConjunctiveQuery> disjuncts_;
};

std::ostream& operator<<(std::ostream& os, const UnionQuery& q);

}  // namespace cqac

#endif  // CQAC_AST_QUERY_H_

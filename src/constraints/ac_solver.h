#ifndef CQAC_CONSTRAINTS_AC_SOLVER_H_
#define CQAC_CONSTRAINTS_AC_SOLVER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ast/comparison.h"
#include "ast/substitution.h"
#include "ast/term.h"
#include "ast/value.h"

namespace cqac {

/// A comparison `lhs op rhs` over the ids of an AcCore's term table.
struct IdComparison {
  int lhs;
  CompOp op;
  int rhs;

  friend bool operator==(const IdComparison& a, const IdComparison& b) {
    return a.lhs == b.lhs && a.op == b.op && a.rhs == b.rhs;
  }
};

/// The one decision procedure behind every AcSolver service, over dense
/// term ids instead of `Term`s.
///
/// Semantics are the paper's: values range over an infinite, totally and
/// *densely* ordered set without endpoints (the rationals).  A check builds
/// the directed "less-or-equal" graph whose edges are the
/// `<=`-consequences of each comparison (`a = b` contributes both
/// directions, `a < b` a strict edge) plus a strict edge between every
/// pair of adjacent constants of the term table, and closes it under
/// reachability (bitset rows per term).  A conjunction is satisfiable iff
/// no strongly connected component contains a strict edge or both
/// endpoints of a `!=` constraint: the condensation can then be linearized
/// and assigned strictly increasing rationals (constants keep their own
/// values; density supplies fresh values between adjacent constants,
/// unboundedness supplies them at the ends).
///
/// **Term-table invariant.**  The table may hold variables and constants
/// that a given check does not mention.  This never changes an answer: an
/// unmentioned variable is an isolated node, and the constant-order edges
/// are true facts about the rationals, so they exclude no assignment.  A
/// caller can therefore intern a whole query once (the constants are
/// sorted once, on the first check after a new constant) and run every
/// check of a simplification over the same table.
///
/// Checks take the comparison list by reference with a `skip` index and
/// one optional `extra` comparison, so implication by refutation
/// (`rest && !c` unsatisfiable) never copies the list.  An AcCore owns its
/// scratch buffers and is not thread-safe; use one per thread of work.
class AcCore {
 public:
  /// The id of `t`, adding it to the table if new.  Variables are keyed
  /// by name, constants by value; ids are 0, 1, 2, ... in first-intern
  /// order.
  int Intern(const Term& t);

  /// Appends variable `name` without a lookup and returns its id.  The
  /// caller guarantees the table holds no variable of that name yet.
  int AddVariable(std::string name) {
    terms_.push_back(Term::Variable(std::move(name)));
    return size() - 1;
  }

  /// Interns both sides of `c`.
  IdComparison Intern(const Comparison& c) {
    return {Intern(c.lhs()), c.op(), Intern(c.rhs())};
  }

  const Term& term(int id) const { return terms_[id]; }
  int size() const { return static_cast<int>(terms_.size()); }

  /// `c` rendered back over the table's terms.
  Comparison ToComparison(const IdComparison& c) const {
    return Comparison(terms_[c.lhs], c.op, terms_[c.rhs]);
  }

  /// True iff `comparisons` without the element at index `skip` (none
  /// when `skip < 0`), plus `*extra` when non-null, is satisfiable.
  bool Satisfiable(const std::vector<IdComparison>& comparisons,
                   int skip = -1, const IdComparison* extra = nullptr);

  /// True iff `comparisons` without the element at `skip` implies
  /// `conclusion` (vacuously when they are unsatisfiable).
  bool Implies(const std::vector<IdComparison>& comparisons, int skip,
               const IdComparison& conclusion) {
    const IdComparison negated{conclusion.lhs, NegateOp(conclusion.op),
                               conclusion.rhs};
    return !Satisfiable(comparisons, skip, &negated);
  }

  /// Greedily drops, first index first, every comparison implied by the
  /// ones still present.  An unsatisfiable list is left unchanged.
  void RemoveRedundant(std::vector<IdComparison>* comparisons);

  /// The forced equalities of `comparisons`: writes into `*representative`
  /// (resized to size()) the id each term collapses onto — the constant of
  /// its strongly connected component if it has one, else the component's
  /// lexicographically least variable.  Returns false, leaving
  /// `*representative` unspecified, when `comparisons` is unsatisfiable.
  bool ForcedEqualities(const std::vector<IdComparison>& comparisons,
                        std::vector<int>* representative);

  /// Satisfiability runs (Satisfiable, Implies and ForcedEqualities calls,
  /// RemoveRedundant's included) since construction.
  int64_t checks() const { return checks_; }

 private:
  void Activate(int u);
  void AddEdge(int u, int v) { Row(u)[v / 64] |= uint64_t{1} << (v % 64); }
  bool Reaches(int u, int v) const {
    return (reach_[static_cast<size_t>(u) * words_ + v / 64] >> (v % 64)) & 1;
  }
  uint64_t* Row(int u) { return &reach_[static_cast<size_t>(u) * words_]; }

  std::vector<Term> terms_;
  std::vector<int> constants_;  // constant ids; ascending by value when sorted
  bool constants_sorted_ = true;
  int64_t checks_ = 0;

  // Scratch of the last check (its closed <=-graph), reused across checks.
  size_t words_ = 0;                  // uint64 words per reach_ row
  std::vector<uint64_t> reach_;       // row u: the terms u reaches
  std::vector<uint32_t> stamp_;       // == run_ iff the term is active
  uint32_t run_ = 0;
  std::vector<int> active_;           // terms touched by this check
  std::vector<std::pair<int, int>> strict_;    // strict edges
  std::vector<std::pair<int, int>> unequal_;   // != pairs
};

/// Decision procedures for conjunctions of arithmetic comparisons
/// (`<, <=, =, !=, >=, >`) over variables and rational constants, with the
/// paper's semantics (see AcCore).  Each service interns its arguments
/// into a fresh AcCore and runs the same core check; implication, forced
/// equalities and redundancy removal reduce to satisfiability by
/// refutation.
class AcSolver {
 public:
  /// True iff some assignment of rationals to the variables satisfies every
  /// comparison.  The empty conjunction is satisfiable.
  static bool IsSatisfiable(const std::vector<Comparison>& comparisons);

  /// True iff every assignment satisfying `axioms` also satisfies every
  /// element of `conclusions` (refutation: `axioms && !c` unsatisfiable
  /// for each c).  Vacuously true when `axioms` is unsatisfiable.
  static bool ImpliesAll(const std::vector<Comparison>& axioms,
                         const std::vector<Comparison>& conclusions);

  /// A substitution that maps each variable forced equal to a constant to
  /// that constant, and collapses every class of variables forced equal to
  /// one representative (the lexicographically least variable of the
  /// class).  Requires `comparisons` satisfiable; returns nullopt otherwise.
  static std::optional<Substitution> ForcedEqualities(
      const std::vector<Comparison>& comparisons);

  /// Evaluates the conjunction under a concrete assignment.  Variables
  /// missing from `assignment` make the result false.
  static bool SatisfiedBy(const std::vector<Comparison>& comparisons,
                          const std::map<std::string, Rational>& assignment);

  /// Removes comparisons that are implied by the remaining ones (including
  /// constant-only tautologies such as `3 < 5`), preserving logical
  /// equivalence.  Requires a satisfiable input to be meaningful; an
  /// unsatisfiable input is returned unchanged.
  static std::vector<Comparison> RemoveRedundant(
      std::vector<Comparison> comparisons);
};

}  // namespace cqac

#endif  // CQAC_CONSTRAINTS_AC_SOLVER_H_

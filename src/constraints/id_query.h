#ifndef CQAC_CONSTRAINTS_ID_QUERY_H_
#define CQAC_CONSTRAINTS_ID_QUERY_H_

#include <string>
#include <vector>

#include "ast/query.h"
#include "constraints/ac_solver.h"

namespace cqac {

/// An ordinary subgoal over the ids of an AcCore term table: a predicate
/// id (an index into IdQuery::preds) and argument term ids.
struct IdAtom {
  int pred;
  std::vector<int> args;

  friend bool operator==(const IdAtom& a, const IdAtom& b) {
    return a.pred == b.pred && a.args == b.args;
  }
};

/// A CQAC over its own AcCore term table: the form a Phase-2 check builds
/// its expansion in (rewriting/expansion.h), simplifies in place, and
/// freezes for the canonical-database test, without going back to
/// strings.  Equal terms have equal ids: variables by name, constants by
/// value.  ToQuery renders the ConjunctiveQuery it stands for.
struct IdQuery {
  IdQuery() = default;

  /// Interns `q`, every term and predicate once.
  explicit IdQuery(const ConjunctiveQuery& q);

  /// The id of predicate `name`, adding it if new.
  int PredId(const std::string& name);

  /// The ids of the distinct variables, in the AllVariables order of
  /// ToQuery() (head, body, comparisons; first occurrence), and of the
  /// distinct constants in the same order.
  void CollectTerms(std::vector<int>* variables,
                    std::vector<int>* constants) const;

  ConjunctiveQuery ToQuery() const;

  AcCore core;  // the term table
  std::string head_pred;
  std::vector<int> head;
  std::vector<std::string> preds;  // predicate id -> name
  std::vector<IdAtom> body;
  std::vector<IdComparison> comparisons;
};

}  // namespace cqac

#endif  // CQAC_CONSTRAINTS_ID_QUERY_H_

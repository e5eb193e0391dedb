#ifndef CQAC_AST_HYPERGRAPH_H_
#define CQAC_AST_HYPERGRAPH_H_

#include <string>
#include <vector>

#include "ast/query.h"

namespace cqac {

/// Structural analysis of a query's join hypergraph.  The paper's
/// conclusion singles out *acyclic* queries as a promising special case
/// with lower complexity; this module supplies the standard machinery:
/// the GYO (Graham / Yu–Özsoyoğlu) reduction decides alpha-acyclicity.

/// True iff the query's hypergraph (one hyperedge of variables per
/// ordinary subgoal) is alpha-acyclic: repeatedly removing "ear" atoms —
/// atoms whose variables are each either private to the atom or entirely
/// covered by a single other atom — empties the body.  Comparisons are
/// ignored (they are selections, not joins).
bool IsAcyclic(const ConjunctiveQuery& q);

/// One step of evidence for acyclicity: the order in which GYO removes
/// atoms (indices into `q.body()`), empty when the query is cyclic.
/// A valid elimination order is exactly a reverse topological order of
/// some join tree.
std::vector<int> GyoEliminationOrder(const ConjunctiveQuery& q);

/// Variables shared between at least two ordinary subgoals (the join
/// variables), first-seen order.
std::vector<std::string> JoinVariables(const ConjunctiveQuery& q);

}  // namespace cqac

#endif  // CQAC_AST_HYPERGRAPH_H_

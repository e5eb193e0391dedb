#ifndef CQAC_CONTAINMENT_CQAC_CONTAINMENT_H_
#define CQAC_CONTAINMENT_CQAC_CONTAINMENT_H_

#include <cstdint>
#include <vector>

#include "ast/query.h"

namespace cqac {

struct AcyclicPlan;  // Never defined; named by perfbench/src/layers.cc:119.
struct IdQuery;       // constraints/id_query.h
class PreparedQuery;  // engine/evaluate.h

/// Containment and equivalence for conjunctive queries with arithmetic
/// comparisons.  Once comparisons are present, the single-containment-
/// mapping criterion of Chandra & Merlin is no longer complete; the
/// library implements the two classical complete tests the paper reviews
/// (Section 2.3):
///
/// * the **canonical-database test** (Levy–Sagiv / Klug): enumerate every
///   total order of q1's variables together with the constants of both
///   queries; for each order whose witness assignment satisfies q1's
///   comparisons, freeze q1's body into a database and require q2 to
///   compute the frozen head on it; and
///
/// * the **order-refinement implication test** (in the spirit of Gupta et
///   al. / Zhang–Özsoyoğlu): for each such total order, collapse q1 by the
///   order's equalities and require some containment mapping mu from q2's
///   ordinary subgoals into the collapsed q1 whose image mu(beta2) is
///   implied by the order — i.e. check beta1 |= OR_mu mu(beta2) by
///   exhausting the total orders that refine beta1.
///
/// Both are exponential in the number of distinct variables and constants
/// (the problem is Pi^p_2-complete in general); they are implemented
/// independently and cross-checked in the property-test suite.

/// Counters describing the work a containment test performed.
///
/// Every test walks q1's satisfying total orders with the prefix-pruned
/// tree of ForEachSatisfyingOrder; `orders_enumerated` counts the orders
/// it checked (fewer than all satisfying ones when a counterexample stops
/// the walk early).
struct ContainmentStats {
  int64_t orders_enumerated = 0;
  /// Enumeration-tree nodes accepted / cut by a partial-order axiom check
  /// (see OrderEnumerationStats); filled by the canonical-database tests
  /// (CqacContainedCanonical / CqacContainedInUnion) only.
  int64_t nodes_visited = 0;
  int64_t nodes_pruned = 0;
};

/// q1 ⊑ q2 via the canonical-database test.
bool CqacContainedCanonical(const ConjunctiveQuery& q1,
                            const ConjunctiveQuery& q2,
                            ContainmentStats* stats = nullptr,
                            // Unused; passed by perfbench/src/layers.cc:119.
                            const AcyclicPlan* = nullptr);

/// CqacContainedCanonical on prepared forms, without per-call setup: `q1`
/// in id form, with satisfiable comparisons (the caller has checked), and
/// `q2` compiled, with `q2_constants` its constants.  Enumerates the same
/// orders in the same sequence as CqacContainedCanonical(q1.ToQuery(), q2).
bool CqacContainedPrepared(const IdQuery& q1, const PreparedQuery& q2,
                           const std::vector<Rational>& q2_constants,
                           ContainmentStats* stats = nullptr);

/// q1 ⊑ q2 via the order-refinement implication test.
bool CqacContainedImplication(const ConjunctiveQuery& q1,
                              const ConjunctiveQuery& q2,
                              ContainmentStats* stats = nullptr);

/// What a budgeted single-mapping search concluded.
enum class MappingSearch { kFound, kNotFound, kBudgetExhausted };

/// The single-containment-mapping test on id forms: searches a
/// containment mapping mu from `q2` to `q1` (q2's head onto q1's position
/// by position, every body atom of q2 onto a body atom of q1, constants
/// onto themselves) with beta1 |= mu(beta2), decided by q1's AcCore.
/// kFound proves q1 ⊑ q2 on every CQAC.  The test is complete only when
/// the comparisons are left (or, symmetrically, right) semi-interval
/// (Klug), so kNotFound decides nothing in general: the multiple-mapping
/// phenomenon is exactly what it misses.  Each candidate atom match and
/// each complete mapping is a step; past `budget` steps the search stops
/// with kBudgetExhausted.  q2's constants are interned into q1's term
/// table, which changes no answer about q1 (see AcCore).
MappingSearch FindImpliedContainmentMapping(IdQuery* q1, const IdQuery& q2,
                                            int64_t budget);

/// q1 ⊑ q2 (canonical-database test; the library default).
bool CqacContained(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

/// q1 ≡ q2.
bool CqacEquivalent(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

/// q ⊑ u for a union of CQACs on the right-hand side: every canonical
/// database of q (with the constants of q and of all disjuncts of u) on
/// which q's comparisons hold must have its frozen head computed by *some*
/// disjunct.  Unlike the plain-CQ case, one disjunct need not cover q by
/// itself (the paper's Example 2).
bool CqacContainedInUnion(const ConjunctiveQuery& q, const UnionQuery& u,
                          ContainmentStats* stats = nullptr);

/// p ⊑ q for unions of CQACs: every disjunct of p contained in q.
bool UnionCqacContained(const UnionQuery& p, const UnionQuery& q);

/// p ≡ q for unions of CQACs.
bool UnionCqacEquivalent(const UnionQuery& p, const UnionQuery& q);

}  // namespace cqac

#endif  // CQAC_CONTAINMENT_CQAC_CONTAINMENT_H_

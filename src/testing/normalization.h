#ifndef CQAC_TESTING_NORMALIZATION_H_
#define CQAC_TESTING_NORMALIZATION_H_

#include "ast/query.h"
#include "containment/cqac_containment.h"

namespace cqac {
namespace testing {

/// Query normalization in the style of Gupta et al. / Zhang–Özsoyoğlu
/// (the preprocessing step of the containment test the paper's Section 2.3
/// cites): every argument position of every ordinary subgoal receives a
/// fresh variable `_n<k>`, and an equality comparison ties the fresh
/// variable to the original term.  Shared variables and constants thus
/// move from the relational structure into the comparison set, where the
/// implication machinery can reason about them uniformly.
///
///   q(X) :- a(X,X), b(3)      becomes
///   q(X) :- a(_n0,_n1), b(_n2), _n0 = X, _n1 = X, _n2 = 3
///
/// The head is left untouched.  Normalization preserves the query's
/// semantics exactly.
ConjunctiveQuery NormalizeQuery(const ConjunctiveQuery& q);

/// q1 ⊑ q2 via the normalization route of Gupta et al. / Zhang–Özsoyoğlu:
/// both queries are normalized so that shared variables and constants
/// live in the comparison sets, and the implication
/// beta1 |= OR_mu exists-ybar mu(beta2) is checked over the satisfying
/// total orders of q1's terms.  A third implementation, independent of
/// the canonical-database and implication tests of
/// containment/cqac_containment.h, which the test suite cross-checks
/// against them; nothing in the shipped tools calls it.
bool CqacContainedNormalized(const ConjunctiveQuery& q1,
                             const ConjunctiveQuery& q2,
                             ContainmentStats* stats = nullptr);

}  // namespace testing
}  // namespace cqac

#endif  // CQAC_TESTING_NORMALIZATION_H_

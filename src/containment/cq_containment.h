#ifndef CQAC_CONTAINMENT_CQ_CONTAINMENT_H_
#define CQAC_CONTAINMENT_CQ_CONTAINMENT_H_

#include "ast/query.h"

namespace cqac {

/// Containment and minimization for *plain* conjunctive queries (no
/// comparisons), per Chandra & Merlin: `q1` is contained in `q2` iff there
/// is a containment mapping from `q2` to `q1`.  Inputs with comparisons
/// are rejected by returning false (use cqac_containment.h).

/// True iff q1 ⊑ q2.
bool CqContained(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

/// The core of `q`: an equivalent query with a minimal set of subgoals,
/// computed by repeatedly dropping subgoals whose removal preserves
/// equivalence.  Unique up to variable renaming for plain CQs.
ConjunctiveQuery CqMinimize(const ConjunctiveQuery& q);

}  // namespace cqac

#endif  // CQAC_CONTAINMENT_CQ_CONTAINMENT_H_

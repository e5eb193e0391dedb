#include "containment/cq_containment.h"

#include "containment/homomorphism.h"

namespace cqac {

bool CqContained(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  if (!q1.IsPlainCQ() || !q2.IsPlainCQ()) return false;
  return FindContainmentMapping(q2, q1).has_value();
}

ConjunctiveQuery CqMinimize(const ConjunctiveQuery& q) {
  ConjunctiveQuery current = q.Deduplicated();
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < current.body().size(); ++i) {
      if (current.body().size() == 1) break;
      std::vector<Atom> smaller_body;
      smaller_body.reserve(current.body().size() - 1);
      for (size_t j = 0; j < current.body().size(); ++j) {
        if (j != i) smaller_body.push_back(current.body()[j]);
      }
      ConjunctiveQuery candidate(current.head(), smaller_body);
      // Dropping a subgoal can only grow the result, so candidate ⊒ current
      // always; equivalence reduces to candidate ⊑ current.
      if (CqContained(candidate, current)) {
        current = candidate;
        changed = true;
        break;
      }
    }
  }
  return current;
}

}  // namespace cqac

#ifndef CQAC_TESTING_PHASE1_KEYS_H_
#define CQAC_TESTING_PHASE1_KEYS_H_

#include <string>

#include "constraints/orders.h"
#include "engine/canonical.h"
#include "rewriting/view_tuples.h"

namespace cqac {
namespace testing {

/// The reference form of the Phase-1 memo key on the canonical database
/// of `order`, which `freezer` and `ev` were last brought to: every
/// view's ground tuples rendered unfrozen (each value as its order
/// block's representative, read off `order`; a value outside every block
/// as itself), plus the variable -> block-representative map, as one
/// string.  The rewriter keys its memo by integers instead;
/// phase1_incremental_test holds the two to the same equivalence classes.
std::string BuildPhase1Key(const CanonicalFreezer& freezer,
                           const ViewTupleEvaluator& ev,
                           const TotalOrder& order);

}  // namespace testing
}  // namespace cqac

#endif  // CQAC_TESTING_PHASE1_KEYS_H_

#ifndef CQAC_REWRITING_EXPORTABLE_H_
#define CQAC_REWRITING_EXPORTABLE_H_

#include <vector>

#include "ast/query.h"

namespace cqac {

/// Construction of the paper's `V0` view variants (Section 3.2).
///
/// When MiniCon runs on the comparison-stripped query `Q0` and views, a
/// nondistinguished view variable blocks any mapping that would need to
/// reach it from the query's head.  But the view's comparisons may *force*
/// such a variable equal to a distinguished one — outright, or after a
/// head homomorphism equates head variables (Definition 3 / Lemma 1:
/// `X` is exportable iff its leq-set and geq-set are both nonempty).
///
/// Example 5: `v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z` exports `X` under
/// the homomorphism `Y = Z`, yielding the variant
/// `v(Y,Y) :- r(Y), s(Y,Y)`.  Example 6 yields two distinct variants from
/// one view.
///
/// BuildV0Variants enumerates every partition of the view's head variables
/// (the head homomorphisms), discards partitions inconsistent with the
/// comparisons, applies all equalities the homomorphism+comparisons force
/// (this is what "exports" nondistinguished variables), strips the
/// comparisons, and deduplicates the results.  The original head predicate
/// is kept, so variants are usable wherever the view is.
std::vector<ConjunctiveQuery> BuildV0Variants(const ConjunctiveQuery& view);

}  // namespace cqac

#endif  // CQAC_REWRITING_EXPORTABLE_H_

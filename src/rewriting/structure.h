#ifndef CQAC_REWRITING_STRUCTURE_H_
#define CQAC_REWRITING_STRUCTURE_H_

#include <string>

#include "ast/query.h"
#include "rewriting/view_set.h"

namespace cqac {

/// Structure-aware tiered execution: a classifier inspects the (query,
/// views) pair before Phase 1 and routes the run to the cheapest engine
/// whose completeness argument applies.  Every tier is byte-compatible
/// with the general path on verdicts, rewritings, and the invariant
/// counters of the differential RunSignature — tiers change how fast the
/// answer is computed, never what it is.
///
///  * T0 (general): the unmodified doubly exponential pipeline.
///  * T2 (acyclic core): the query and views are comparison-free and the
///    query hypergraph is GYO-acyclic (Geck et al.: acyclic rewriting
///    machinery).  The keep test and the Phase-2 per-order evaluation run
///    on a join-tree semi-join plan (engine/jointree.h) instead of the
///    general homomorphism search.
///
/// Tier 1 (a semi-interval verdict cache) was removed; its number stays
/// unused so tier labels in logs and metrics keep their meaning.
enum class ExecutionTier {
  kGeneral = 0,
  kAcyclic = 2,
};

/// "tier0" / "tier2".
const char* TierName(ExecutionTier tier);

/// The classifier's verdict for one (query, views) pair.
struct TierDecision {
  ExecutionTier tier = ExecutionTier::kGeneral;

  /// Human-readable routing explanation, surfaced as `tier_reason` in
  /// stats/JSON: why this tier fired, or which structural feature blocked
  /// the acyclic tier (the first comparison, the cyclic hypergraph, a
  /// forced-tier fallback).
  std::string reason;

  /// Raw eligibility, independent of the final routing: used by
  /// ResolveTier to honor or reject a forced tier.
  bool acyclic_eligible = false;
};

/// Classifies the pair structurally (no forcing): T2 when the query and
/// every view are comparison-free and the query hypergraph is acyclic,
/// else T0.
TierDecision ClassifyStructure(const ConjunctiveQuery& query,
                               const ViewSet& views);

/// Applies a `--force-tier` request to a classified decision.  Forcing is
/// a testing hook, never a soundness override: a forced tier applies only
/// when its eligibility precondition holds, otherwise the run falls back
/// to T0 and the reason says so — which makes a forced-tier sweep over an
/// arbitrary corpus sound by construction.  `force_tier` < 0 means auto.
TierDecision ResolveTier(const TierDecision& classified, int force_tier);

}  // namespace cqac

#endif  // CQAC_REWRITING_STRUCTURE_H_

#include "rewriting/structure.h"

#include "ast/hypergraph.h"

namespace cqac {

const char* TierName(ExecutionTier tier) {
  switch (tier) {
    case ExecutionTier::kGeneral:
      return "tier0";
    case ExecutionTier::kAcyclic:
      return "tier2";
  }
  return "tier?";
}

TierDecision ClassifyStructure(const ConjunctiveQuery& query,
                               const ViewSet& views) {
  TierDecision d;
  const Comparison* query_blocker =
      query.comparisons().empty() ? nullptr : &query.comparisons().front();
  const Comparison* view_blocker = nullptr;
  for (const ConjunctiveQuery& v : views.views()) {
    if (!v.comparisons().empty()) {
      view_blocker = &v.comparisons().front();
      break;
    }
  }
  const bool comparison_free =
      query_blocker == nullptr && view_blocker == nullptr;
  d.acyclic_eligible =
      comparison_free && !query.body().empty() && IsAcyclic(query);

  if (d.acyclic_eligible) {
    d.tier = ExecutionTier::kAcyclic;
    d.reason =
        "comparison-free query and views with a GYO-acyclic hypergraph: "
        "join-tree keep test";
  } else if (!comparison_free) {
    const Comparison* blocker =
        query_blocker != nullptr ? query_blocker : view_blocker;
    d.reason = "comparison " + blocker->ToString() +
               (query_blocker != nullptr ? " on the query" : " on a view") +
               " blocks the acyclic tier";
  } else if (query.body().empty()) {
    d.reason = "empty query body: general path";
  } else {
    d.reason = "comparison-free but the query hypergraph is cyclic: "
               "general path";
  }
  return d;
}

TierDecision ResolveTier(const TierDecision& classified, int force_tier) {
  if (force_tier < 0) return classified;
  TierDecision d = classified;
  d.tier = ExecutionTier::kGeneral;
  switch (force_tier) {
    case 0:
      d.reason = "forced tier0 (--force-tier 0)";
      return d;
    case 2:
      if (classified.acyclic_eligible) {
        d.tier = ExecutionTier::kAcyclic;
        d.reason = "forced tier2 (--force-tier 2; acyclic eligible)";
      } else {
        d.reason = "forced tier2 ineligible (" + classified.reason +
                   "); falling back to the general path";
      }
      return d;
    default:
      d.reason = "unknown forced tier " + std::to_string(force_tier) +
                 "; falling back to the general path";
      return d;
  }
}

}  // namespace cqac

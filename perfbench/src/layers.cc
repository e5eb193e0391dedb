#include "layers.h"

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "constraints/ac_solver.h"
#include "constraints/orders.h"
#include "containment/cqac_containment.h"
#include "engine/canonical.h"
#include "engine/evaluate.h"
#include "rewriting/expansion.h"
#include "runtime/memo_cache.h"

namespace perfbench {

using cqac::ConjunctiveQuery;
using cqac::DatabaseOutcome;
using cqac::RewriteOutcome;
using cqac::RewriteResult;

RewriteResult TracedRewrite(const ConjunctiveQuery& query,
                            const cqac::ViewSet& views, SpanRecorder* spans,
                            int request, LayerCounts* counts) {
  ScopedSpan root(spans, "rewrite", request);
  const cqac::RewriteOptions options;
  RewriteResult result;
  // EquivalentRewriter::RunSerial's shortcut for contradictory queries.
  if (!cqac::AcSolver::IsSatisfiable(query.comparisons())) {
    result.outcome = RewriteOutcome::kRewritingFound;
    result.tier_reason =
        "query comparisons unsatisfiable; the rewriting is the empty union";
    return result;
  }
  std::optional<cqac::RewriteWork> prepared;
  {
    ScopedSpan s(spans, "rewriting.prepare", request);
    prepared.emplace(cqac::PrepareRewriteWork(query, views, options));
  }
  const cqac::RewriteWork& work = *prepared;
  result.stats.v0_variants = static_cast<int64_t>(work.v0_variants.size());
  result.stats.mcds_formed = static_cast<int64_t>(work.mcds.size());
  result.tier = static_cast<int>(work.tier.tier);
  result.tier_reason = work.tier.reason;

  // Phase 1, as in RunPreparedRewriteSerial with a run-local memo.
  std::vector<ConjunctiveQuery> pre_rewritings;
  std::set<std::string> pre_rewriting_keys;
  bool failed = false;
  cqac::Phase1Memo memo;
  {
    ScopedSpan orders(spans, "constraints.orders", request);
    const int phase1 = spans->BeginAggregate("rewriting.phase1", request);
    cqac::ForEachTotalOrder(
        work.query.AllVariables(), work.constants,
        [&](const cqac::TotalOrder& order) {
          ++result.stats.canonical_databases;
          ++counts->orders;
          const int64_t allocs = Allocations();
          const int64_t t0 = NowNs();
          DatabaseOutcome out = cqac::ProcessCanonicalDatabase(work, order, &memo);
          const int64_t t1 = NowNs();
          counts->phase1_allocs += Allocations() - allocs;
          spans->Add(phase1, t0, t1);
          ++counts->phase1_calls;
          counts->phase1_memo_hits += out.stats.phase1_memo_hits;
          counts->phase1_memo_misses += out.stats.phase1_memo_misses;
          counts->phase1_kept += out.stats.kept_canonical_databases;
          result.stats.Merge(out.stats);
          if (out.status == DatabaseOutcome::Status::kFailed) {
            failed = true;
            result.failure_reason = std::move(out.failure_reason);
            return false;
          }
          if (out.status == DatabaseOutcome::Status::kKept &&
              pre_rewriting_keys.insert(out.pre_rewriting->ToString()).second) {
            pre_rewritings.push_back(*std::move(out.pre_rewriting));
          }
          return true;
        });
  }
  if (failed) {
    result.outcome = RewriteOutcome::kNoRewriting;
    return result;
  }
  if (pre_rewritings.empty()) {
    result.outcome = RewriteOutcome::kNoRewriting;
    result.failure_reason = "query computes its head on no canonical database";
    return result;
  }

  // Phase 2: CheckExpansionContained without a memo, one unit per call.
  for (const ConjunctiveQuery& pre : pre_rewritings) {
    ++result.stats.phase2_checks;
    ConjunctiveQuery expansion;
    {
      ScopedSpan s(spans, "rewriting.expand", request);
      expansion = cqac::Expand(pre, work.views);
    }
    counts->expand_atoms_out += static_cast<int64_t>(expansion.body().size());
    if (options.simplify_expansions) {
      ScopedSpan s(spans, "rewriting.simplify", request);
      const int64_t allocs = Allocations();
      std::optional<ConjunctiveQuery> simplified = cqac::SimplifyQuery(expansion);
      if (simplified.has_value()) expansion = *std::move(simplified);
      counts->simplify_allocs += Allocations() - allocs;
    }
    counts->simplify_atoms_out += static_cast<int64_t>(expansion.body().size());
    counts->simplify_vars_out +=
        static_cast<int64_t>(expansion.AllVariables().size());
    cqac::ContainmentStats cstats;
    bool contained;
    {
      ScopedSpan s(spans, "containment.canonical", request);
      const int64_t allocs = Allocations();
      contained = cqac::CqacContainedCanonical(expansion, work.query, &cstats,
                                               work.acyclic_plan.get());
      counts->containment_allocs += Allocations() - allocs;
    }
    ++counts->containment_calls;
    counts->containment_orders += cstats.orders_enumerated;
    result.stats.phase2_orders += cstats.orders_enumerated;
    if (!contained) {
      result.outcome = RewriteOutcome::kNoRewriting;
      result.failure_reason =
          "expansion not contained in the query: " + pre.ToString();
      return result;
    }
  }
  ScopedSpan s(spans, "rewriting.finalize", request);
  cqac::FinalizeFoundRewriting(work, std::move(pre_rewritings), &result);
  return result;
}

KeepTestTotals KeepTestPass(const ConjunctiveQuery& query,
                            const cqac::ViewSet& views) {
  KeepTestTotals totals;
  if (!cqac::AcSolver::IsSatisfiable(query.comparisons())) return totals;
  const cqac::RewriteOptions options;
  const cqac::RewriteWork work = cqac::PrepareRewriteWork(query, views, options);
  cqac::CanonicalFreezer freezer(query);
  cqac::PreparedQuery::Scratch scratch;
  cqac::ForEachTotalOrder(
      query.AllVariables(), work.constants,
      [&](const cqac::TotalOrder& order) {
        const int64_t t0 = NowNs();
        const cqac::FlatInstance& instance = freezer.Freeze(order);
        const bool kept = work.prepared_query.Run(
            instance, &freezer.frozen_head(), nullptr, &scratch);
        totals.ns += NowNs() - t0;
        ++totals.calls;
        totals.kept += kept ? 1 : 0;
        return true;
      });
  return totals;
}

}  // namespace perfbench

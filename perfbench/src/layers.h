#ifndef CQAC_PERFBENCH_LAYERS_H_
#define CQAC_PERFBENCH_LAYERS_H_

// The traced run's per-layer measurements, taken by calling each module's
// public functions from here:
//
//  * TracedRewrite rebuilds the serial driver of EquivalentRewriter::Run
//    from its public work units (PrepareRewriteWork, ForEachTotalOrder,
//    ProcessCanonicalDatabase, Expand, SimplifyQuery,
//    CqacContainedCanonical, FinalizeFoundRewriting) with a span around
//    each call.  Its answers must equal Run's byte for byte.
//  * KeepTestPass times CanonicalFreezer::Freeze + PreparedQuery::Run over
//    the same canonical databases, in a separate pass.

#include <cstdint>

#include "ast/query.h"
#include "rewriting/equiv_rewriter.h"
#include "rewriting/view_set.h"
#include "spans.h"

namespace perfbench {

/// Heap allocations so far (testing/alloc_hook.h, linked into main.cc).
int64_t Allocations();

/// Work counts of the traced passes, summed over a pass.
struct LayerCounts {
  int64_t orders = 0;
  int64_t phase1_calls = 0;
  int64_t phase1_kept = 0;
  int64_t phase1_memo_hits = 0;
  int64_t phase1_memo_misses = 0;
  int64_t phase1_allocs = 0;
  int64_t expand_atoms_out = 0;
  int64_t simplify_atoms_out = 0;
  int64_t simplify_vars_out = 0;
  int64_t simplify_allocs = 0;
  int64_t containment_calls = 0;
  int64_t containment_orders = 0;
  int64_t containment_allocs = 0;
};

/// The default serial EquivalentRewriter::Run, rebuilt from public units
/// with spans (request id `request`) and counts.
cqac::RewriteResult TracedRewrite(const cqac::ConjunctiveQuery& query,
                                  const cqac::ViewSet& views,
                                  SpanRecorder* spans, int request,
                                  LayerCounts* counts);

struct KeepTestTotals {
  int64_t ns = 0;
  int64_t calls = 0;
  int64_t kept = 0;
};

/// Freeze + keep test of every canonical database of `query` against the
/// run's constants, each call timed.
KeepTestTotals KeepTestPass(const cqac::ConjunctiveQuery& query,
                            const cqac::ViewSet& views);

}  // namespace perfbench

#endif  // CQAC_PERFBENCH_LAYERS_H_

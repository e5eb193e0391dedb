// Microbenchmark: the keep test, Phase 1, and the end-to-end rewrite on
// two query shapes.
//
//  * Keep-test and Phase-1 sweeps over a hand-built semi-interval
//    workload (no Phase 2, no memo);
//  * end-to-end serial rewrite of the semi-interval query and of a
//    comparison-free acyclic chain.  Each row checks before timing that
//    the rewriter finds the rewriting; a wrong answer errors the row.

#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "obs/request_context.h"
#include "benchmark/benchmark.h"
#include "constraints/orders.h"
#include "engine/canonical.h"
#include "engine/evaluate.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "rewriting/view_set.h"

namespace {

// Dense semi-interval workload: 5 variables + 1 constant = 4683 total
// orders.  Every atom uses the one predicate r, so the keep test joins 10
// atoms against a 10-row self-join — expensive to refute.
const char* const kSemiIntervalQuery =
    "q(X0) :- r(X0,X1), r(X1,X2), r(X2,X3), r(X3,X4), r(X0,X2), r(X1,X3), "
    "r(X2,X4), r(X0,X3), r(X1,X4), r(X0,X4), X0 < 10, X1 < 10, X2 >= 10, "
    "X3 >= 10, X4 >= 10";

cqac::ViewSet SemiIntervalViews() {
  cqac::ViewSet views;
  views.Add(cqac::Parser::MustParseRule(
      "v0(A,B,C) :- r(A,B), r(B,C), A < 10"));
  views.Add(cqac::Parser::MustParseRule("v1(A,B) :- r(A,B)"));
  return views;
}

// Comparison-free acyclic chain: 6 variables, 4683 orders, covered end to
// end by the three fragment views, so a rewriting exists.
const char* const kAcyclicQuery =
    "q(X0,X5) :- e0(X0,X1), e1(X1,X2), e2(X2,X3), e3(X3,X4), e4(X4,X5)";

cqac::ViewSet AcyclicViews() {
  cqac::ViewSet views;
  views.Add(cqac::Parser::MustParseRule("w0(A,B,C) :- e0(A,B), e1(B,C)"));
  views.Add(cqac::Parser::MustParseRule("w1(C,D,E) :- e2(C,D), e3(D,E)"));
  views.Add(cqac::Parser::MustParseRule("w2(E,F) :- e4(E,F)"));
  return views;
}

// The keep-test layer in isolation: per canonical database, decide
// whether the query computes its frozen head.  Orders are materialized up
// front so the row measures verdict computation, not enumeration.  Seven
// variables against a single constant give 545835 orders, and the
// 60 distinct-predicate atoms make freezing the canonical database the
// dominant, uniform per-order cost.
const char* const kKeepTestQuery =
    "q(X0) :- c0(X0,X1), c1(X1,X2), c2(X2,X3), c3(X3,X4), c4(X4,X5), "
    "c5(X5,X6), d0(X0,X2), d1(X1,X3), d2(X2,X4), d3(X3,X5), d4(X4,X6), "
    "e0(X0,X1), e1(X1,X2), e2(X2,X3), e3(X3,X4), e4(X4,X5), e5(X5,X6), "
    "f0(X0,X3), f1(X1,X4), f2(X2,X5), f3(X3,X6), g0(X0,X4), g1(X1,X5), "
    "g2(X2,X6), h0(X0,X1), h1(X1,X2), h2(X2,X3), h3(X3,X4), h4(X4,X5), "
    "h5(X5,X6), i0(X0,X2), i1(X1,X3), i2(X2,X4), i3(X3,X5), i4(X4,X6), "
    "j0(X0,X3), j1(X1,X4), j2(X2,X5), j3(X3,X6), k0(X0,X5), k1(X1,X6), "
    "k2(X0,X6), m0(X2,X0), m1(X4,X2), m2(X6,X4), n0(X1,X0), n1(X2,X1), "
    "n2(X3,X2), n3(X4,X3), n4(X5,X4), n5(X6,X5), p0(X3,X0), p1(X4,X1), "
    "p2(X5,X2), p3(X6,X3), "
    "X0 < 10, X2 < 10, X4 >= 10, X6 >= 10";

void BM_SemiIntervalKeepTest(benchmark::State& state) {
  const cqac::ConjunctiveQuery query =
      cqac::Parser::MustParseRule(kKeepTestQuery);
  const std::vector<cqac::TotalOrder> orders =
      cqac::EnumerateTotalOrders(query.AllVariables(), query.Constants());
  cqac::CanonicalFreezer freezer(query);
  const cqac::PreparedQuery prepared(query);
  cqac::PreparedQuery::Scratch scratch;
  int64_t kept = 0;
  for (auto _ : state) {
    kept = 0;
    for (const cqac::TotalOrder& order : orders) {
      const cqac::FlatInstance& inst = freezer.Freeze(order);
      kept += prepared.Run(inst, &freezer.frozen_head(), nullptr, &scratch);
    }
    benchmark::DoNotOptimize(kept);
  }
  state.counters["orders"] = static_cast<double>(orders.size());
  state.counters["kept"] = static_cast<double>(kept);
}

// Phase-1 keep-test sweep on the general path: every canonical database
// of the semi-interval workload through ProcessCanonicalDatabase (no
// Phase 2, no memo).
void BM_SemiIntervalPhase1(benchmark::State& state) {
  const cqac::ConjunctiveQuery query =
      cqac::Parser::MustParseRule(kSemiIntervalQuery);
  const cqac::ViewSet views = SemiIntervalViews();
  const cqac::RewriteOptions options;
  int64_t dbs = 0, kept = 0;
  for (auto _ : state) {
    dbs = kept = 0;
    const cqac::RewriteWork work =
        cqac::PrepareRewriteWork(query, views, options);
    cqac::ForEachTotalOrder(
        query.AllVariables(), work.constants,
        [&](const cqac::TotalOrder& order) {
          ++dbs;
          const cqac::DatabaseOutcome out =
              cqac::ProcessCanonicalDatabase(work, order, nullptr);
          kept += out.stats.kept_canonical_databases;
          benchmark::DoNotOptimize(out);
          return true;
        });
  }
  state.counters["canonical_dbs"] = static_cast<double>(dbs);
  state.counters["kept_dbs"] = static_cast<double>(kept);
}

// End-to-end serial rewrite.  Both workloads have a rewriting by
// construction; the untimed first run must find it, or the row errors
// (and BenchMain exits non-zero).
void RewriteRow(benchmark::State& state, const char* query_text,
                const cqac::ViewSet& views) {
  const cqac::ConjunctiveQuery query = cqac::Parser::MustParseRule(query_text);
  cqac::RewriteOptions options;
  options.jobs = 1;
  const cqac::RewriteResult checked =
      cqac::EquivalentRewriter(query, views, options).Run();
  if (checked.outcome != cqac::RewriteOutcome::kRewritingFound) {
    state.SkipWithError("the rewriter found no rewriting");
    return;
  }
  for (auto _ : state) {
    const cqac::RewriteResult result =
        cqac::EquivalentRewriter(query, views, options).Run();
    benchmark::DoNotOptimize(result);
  }
  state.counters["kept_dbs"] =
      static_cast<double>(checked.stats.kept_canonical_databases);
}

void BM_SemiIntervalRewrite(benchmark::State& state) {
  RewriteRow(state, kSemiIntervalQuery, SemiIntervalViews());
}

void BM_AcyclicRewrite(benchmark::State& state) {
  RewriteRow(state, kAcyclicQuery, AcyclicViews());
}

BENCHMARK(BM_SemiIntervalKeepTest)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SemiIntervalPhase1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SemiIntervalRewrite)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AcyclicRewrite)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // CQAC_TELEMETRY=1: bind a request scope for the whole run so every
  // span site records into the flight recorder, exactly as it would
  // inside a served request.  This is the telemetry-on side of the
  // overhead gate in tools/run_benches.sh (`telemetry_overhead`), whose
  // baseline is a separate -DCQAC_TRACING=OFF build of this binary.
  const char* telemetry = std::getenv("CQAC_TELEMETRY");
  if (telemetry != nullptr && telemetry[0] == '1') {
    static const cqac::obs::RequestScope scope(cqac::obs::GenerateTraceId());
  }
  return cqac_bench::BenchMain(argc, argv);
}

// Section 4's claim: "a completely naive full-enumeration algorithm would
// not have a chance because it would have to enumerate thousands of
// combinations of view tuples for a typical query ... the curves would go
// nearly vertically."
//
// This bench runs the paper's algorithm and the bounded full-enumeration
// baseline on the same workload points and prints both series; the
// baseline's time (and candidate counters) explode as the instance grows
// while the paper's algorithm stays flat.

#include "bench/bench_common.h"
#include "rewriting/enumeration.h"

namespace {

cqac::WorkloadInstance InstanceFor(int num_variables, int num_views) {
  cqac::WorkloadConfig config;
  config.num_variables = num_variables;
  config.num_constants = 1;
  config.num_subgoals = 2;
  config.view_subgoals = 2;
  config.num_views = num_views;
  config.distractor_fraction = 0.0;
  config.seed = 7;
  cqac::WorkloadGenerator generator(config);
  return generator.Generate();
}

void BM_PaperAlgorithm(benchmark::State& state) {
  const cqac::WorkloadInstance instance =
      InstanceFor(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)));
  int64_t found = 0;
  cqac::RewriteOptions options;
  options.jobs = cqac_bench::g_jobs;
  for (auto _ : state) {
    const cqac::RewriteResult result =
        cqac::EquivalentRewriter(instance.query, instance.views, options).Run();
    found = result.outcome == cqac::RewriteOutcome::kRewritingFound;
    benchmark::DoNotOptimize(result);
  }
  state.counters["found"] = static_cast<double>(found);
}

void BM_NaiveEnumeration(benchmark::State& state) {
  const cqac::WorkloadInstance instance =
      InstanceFor(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)));
  cqac::EnumerationOptions options;
  options.max_subgoals = 2;
  options.max_fresh_variables = 1;
  // Budget keeps the worst points from running for hours; the counter
  // records whether it was hit (the "nearly vertical" regime).
  options.max_candidates = 20000;
  int64_t found = 0;
  int64_t exhausted = 0;
  int64_t candidates = 0;
  for (auto _ : state) {
    const cqac::EnumerationResult result =
        EnumerateEquivalentRewriting(instance.query, instance.views, options);
    found = result.found;
    exhausted = result.budget_exhausted;
    candidates = result.candidate_bodies;
    benchmark::DoNotOptimize(result);
  }
  state.counters["found"] = static_cast<double>(found);
  state.counters["budget_exhausted"] = static_cast<double>(exhausted);
  state.counters["candidate_bodies"] = static_cast<double>(candidates);
}

BENCHMARK(BM_PaperAlgorithm)
    ->ArgsProduct({{2, 3, 4}, {2, 3, 4}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NaiveEnumeration)
    ->ArgsProduct({{2, 3, 4}, {2, 3, 4}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

CQAC_BENCH_MAIN();

// Microbench for the containment-mapping search itself: the compiled
// engine (interned symbols, trail-based bindings, most-constrained-first
// subgoal order) against the legacy string-substitution backtracker, on
// chain queries mapped into high-fanout targets.  This binary doubles as
// the `perfsmoke` ctest guard: a sub-second run proves both engines still
// compile, link, and terminate on the workloads below.

#include <string>

#include "bench/bench_common.h"
#include "benchmark/benchmark.h"
#include "containment/homomorphism.h"
#include "parser/parser.h"

namespace {

/// q(X0) :- p(X0,X1), ..., p(Xn-1,Xn): a length-n chain.
cqac::ConjunctiveQuery Chain(int subgoals) {
  std::string body;
  for (int i = 0; i < subgoals; ++i) {
    if (i > 0) body += ", ";
    body += "p(X" + std::to_string(i) + ",X" + std::to_string(i + 1) + ")";
  }
  return cqac::Parser::MustParseRule("q(X0) :- " + body);
}

/// q(Y0) :- p(Y0,Y1), ..., plus a self-loop p(Y0,Y0): every chain maps
/// here many ways, so enumeration has real fanout to chew through.
cqac::ConjunctiveQuery Target(int subgoals) {
  std::string body = "p(Y0,Y0)";
  for (int i = 0; i < subgoals; ++i) {
    body += ", p(Y" + std::to_string(i) + ",Y" + std::to_string(i + 1) + ")";
  }
  return cqac::Parser::MustParseRule("q(Y0) :- " + body);
}

int64_t CountMappings(
    const cqac::ConjunctiveQuery& from, const cqac::ConjunctiveQuery& to,
    void (*for_each)(const cqac::ConjunctiveQuery&,
                     const cqac::ConjunctiveQuery&,
                     const std::function<bool(const cqac::Substitution&)>&)) {
  int64_t count = 0;
  for_each(from, to, [&count](const cqac::Substitution&) {
    ++count;
    return true;
  });
  return count;
}

void BM_Homomorphism_Compiled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const cqac::ConjunctiveQuery from = Chain(n);
  const cqac::ConjunctiveQuery to = Target(n);
  int64_t mappings = 0;
  for (auto _ : state) {
    mappings = CountMappings(from, to, &cqac::ForEachContainmentMapping);
    benchmark::DoNotOptimize(mappings);
  }
  state.counters["mappings"] = static_cast<double>(mappings);
}

void BM_Homomorphism_Legacy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const cqac::ConjunctiveQuery from = Chain(n);
  const cqac::ConjunctiveQuery to = Target(n);
  int64_t mappings = 0;
  for (auto _ : state) {
    mappings = CountMappings(
        from, to, &cqac::internal::ForEachContainmentMappingLegacy);
    benchmark::DoNotOptimize(mappings);
  }
  state.counters["mappings"] = static_cast<double>(mappings);
}

// First-mapping-only: the decision variant CQ containment calls;
// dominated by compile + first dive, not enumeration.
void BM_Homomorphism_Find_Compiled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const cqac::ConjunctiveQuery from = Chain(n);
  const cqac::ConjunctiveQuery to = Target(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cqac::FindContainmentMapping(from, to));
  }
}

BENCHMARK(BM_Homomorphism_Compiled)
    ->DenseRange(2, 8, 2)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Homomorphism_Legacy)
    ->DenseRange(2, 8, 2)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Homomorphism_Find_Compiled)
    ->DenseRange(2, 8, 2)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

CQAC_BENCH_MAIN();

// Ablation B: cost of the two CQAC containment substrates (Section 2.3) —
// the canonical-database test versus the order-refinement implication
// test — on query pairs of growing variable count.  Both are exponential
// in the variables; the implication test trades database evaluation for
// containment-mapping search.

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "benchmark/benchmark.h"
#include "containment/cqac_containment.h"
#include "parser/parser.h"

namespace {

/// A chain query q() :- p(X0,X1), ..., p(Xn-1,Xn), X0 < c with n subgoals.
cqac::ConjunctiveQuery Chain(int subgoals, const char* comparison) {
  std::string body;
  for (int i = 0; i < subgoals; ++i) {
    if (i > 0) body += ", ";
    body += "p(X" + std::to_string(i) + ",X" + std::to_string(i + 1) + ")";
  }
  return cqac::Parser::MustParseRule("q(X0) :- " + body + ", " + comparison);
}

/// Runs `test` on (q1, q2) once per iteration and reports the satisfying
/// orders it checked as the `orders_enumerated` counter.
template <typename Test>
void RunContainment(benchmark::State& state, Test test,
                    const cqac::ConjunctiveQuery& q1,
                    const cqac::ConjunctiveQuery& q2) {
  int64_t orders = 0;
  for (auto _ : state) {
    cqac::ContainmentStats stats;
    benchmark::DoNotOptimize(test(q1, q2, &stats));
    orders = stats.orders_enumerated;
  }
  state.counters["orders_enumerated"] = static_cast<double>(orders);
}

bool Canonical(const cqac::ConjunctiveQuery& q1,
               const cqac::ConjunctiveQuery& q2, cqac::ContainmentStats* s) {
  return cqac::CqacContainedCanonical(q1, q2, s);
}

bool Implication(const cqac::ConjunctiveQuery& q1,
                 const cqac::ConjunctiveQuery& q2, cqac::ContainmentStats* s) {
  return cqac::CqacContainedImplication(q1, q2, s);
}

void BM_Containment_Canonical(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  RunContainment(state, Canonical, Chain(n, "X0 < 5"), Chain(n, "X0 < 7"));
}

void BM_Containment_Implication(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  RunContainment(state, Implication, Chain(n, "X0 < 5"), Chain(n, "X0 < 7"));
}

// The multi-mapping case (Klug): q1's symmetric body needs a case split
// per order; stresses the disjunction handling of both tests.
const char kCaseSplitQ1[] = "q() :- p(X,Y), p(Y,X), p(X,Z), p(Z,X)";
const char kCaseSplitQ2[] = "q() :- p(U,V), U <= V";

void BM_Containment_CaseSplit_Canonical(benchmark::State& state) {
  RunContainment(state, Canonical, cqac::Parser::MustParseRule(kCaseSplitQ1),
                 cqac::Parser::MustParseRule(kCaseSplitQ2));
}

void BM_Containment_CaseSplit_Implication(benchmark::State& state) {
  RunContainment(state, Implication,
                 cqac::Parser::MustParseRule(kCaseSplitQ1),
                 cqac::Parser::MustParseRule(kCaseSplitQ2));
}

BENCHMARK(BM_Containment_Canonical)
    ->DenseRange(1, 5)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Containment_Implication)
    ->DenseRange(1, 5)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Containment_CaseSplit_Canonical)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Containment_CaseSplit_Implication)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

CQAC_BENCH_MAIN();

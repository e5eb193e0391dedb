// Microbenchmark: the canonical-database substrate itself.  The number of
// total orders of n variables is the ordered Bell number (1, 3, 13, 75,
// 541, 4683, 47293, 545835, ...), which is the engine behind the runtime
// growth of Figures 4(b,c); this bench pins the constant factor per order
// and the effect of comparison-driven pruning.

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "benchmark/benchmark.h"
#include "constraints/orders.h"

namespace {

std::vector<std::string> Vars(int n) {
  std::vector<std::string> vars;
  for (int i = 0; i < n; ++i) vars.push_back("X" + std::to_string(i));
  return vars;
}

void BM_EnumerateAllOrders(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<std::string> vars = Vars(n);
  int64_t count = 0;
  for (auto _ : state) {
    count = 0;
    cqac::ForEachTotalOrder(vars, {}, [&count](const cqac::TotalOrder&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
  state.counters["orders"] = static_cast<double>(count);
  state.counters["expected"] =
      static_cast<double>(cqac::CountTotalOrders(n, 0));
}

// The same tree as the index-form walk Phase 1 and containment consume:
// no names and no TotalOrder per order.
void BM_WalkAllOrders(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const cqac::OrderEnumerator tree(n, 0);
  cqac::OrderState root = tree.Root();
  int64_t count = 0;
  const cqac::OrderEnumerator::Visitor visit =
      [&count](const cqac::OrderState&) {
        ++count;
        return true;
      };
  for (auto _ : state) {
    count = 0;
    tree.Walk(&root, n, visit);
    benchmark::DoNotOptimize(count);
  }
  state.counters["orders"] = static_cast<double>(count);
}

void BM_EnumerateWithConstants(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<std::string> vars = Vars(n);
  const std::vector<cqac::Rational> constants = {cqac::Rational(10),
                                                 cqac::Rational(20)};
  int64_t count = 0;
  for (auto _ : state) {
    count = 0;
    cqac::ForEachTotalOrder(vars, constants,
                            [&count](const cqac::TotalOrder&) {
                              ++count;
                              return true;
                            });
    benchmark::DoNotOptimize(count);
  }
  state.counters["orders"] = static_cast<double>(count);
}

// A fully chained constraint set prunes the enumeration to a single
// satisfying order; measures the pruning machinery's overhead.
void BM_EnumerateSatisfyingChained(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<std::string> vars = Vars(n);
  std::vector<cqac::Comparison> axioms;
  for (int i = 0; i + 1 < n; ++i) {
    axioms.push_back(cqac::Comparison(
        cqac::Term::Variable("X" + std::to_string(i)), cqac::CompOp::kLt,
        cqac::Term::Variable("X" + std::to_string(i + 1))));
  }
  int64_t count = 0;
  for (auto _ : state) {
    count = 0;
    cqac::ForEachSatisfyingOrder(vars, {}, axioms,
                                 [&count](const cqac::TotalOrder&) {
                                   ++count;
                                   return true;
                                 });
    benchmark::DoNotOptimize(count);
  }
  state.counters["satisfying_orders"] = static_cast<double>(count);
}

BENCHMARK(BM_EnumerateAllOrders)
    ->DenseRange(1, 8)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WalkAllOrders)
    ->DenseRange(1, 8)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_EnumerateWithConstants)
    ->DenseRange(1, 6)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_EnumerateSatisfyingChained)
    ->DenseRange(2, 10)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

CQAC_BENCH_MAIN();

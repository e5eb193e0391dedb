// Phase-2 parity: the production check (CheckExpansionContained, which
// expands into term ids, simplifies in place and runs the work's prepared
// query) against the string reference — the view-by-view Substitution
// expansion below, then SimplifyQuery and CqacContainedCanonical — on
// every Phase-2 check of whole runs at jobs 1, 2 and 4, with expansion
// simplification on and off.  The verdict, the orders enumerated and the
// rendered expansion must all be equal.

#ifndef CQAC_CORPUS_DIR
#error "CQAC_CORPUS_DIR must point at tests/corpus"
#endif

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "constraints/orders.h"
#include "containment/cqac_containment.h"
#include "gtest/gtest.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "rewriting/expansion.h"
#include "testing/corpus.h"
#include "testing/differential.h"
#include "workload/generator.h"

namespace cqac {
namespace {

/// The expansion by strings: for the k-th view subgoal, one Substitution
/// maps the view's head variables onto the subgoal's arguments (repeated
/// head variables and head constants become equalities) and its i-th
/// other variable onto `_e<k>_<i>`.
ConjunctiveQuery ReferenceExpand(const ConjunctiveQuery& rewriting,
                                 const ViewSet& views) {
  std::vector<Atom> body;
  std::vector<Comparison> comparisons = rewriting.comparisons();
  int counter = 0;
  for (const Atom& subgoal : rewriting.body()) {
    const ConjunctiveQuery* view = views.Find(subgoal.predicate());
    if (view == nullptr) {
      body.push_back(subgoal);
      continue;
    }
    Substitution theta;
    const int arity = std::min(view->head().arity(), subgoal.arity());
    for (int i = 0; i < arity; ++i) {
      const Term& head_term = view->head().args()[i];
      const Term& arg = subgoal.args()[i];
      if (head_term.IsConstant()) {
        if (arg != head_term) {
          comparisons.push_back(Comparison(arg, CompOp::kEq, head_term));
        }
      } else if (theta.IsBound(head_term.name())) {
        const Term& first = theta.Lookup(head_term.name());
        if (first != arg) {
          comparisons.push_back(Comparison(first, CompOp::kEq, arg));
        }
      } else {
        theta.Bind(head_term.name(), arg);
      }
    }
    const std::string prefix = "_e" + std::to_string(counter++) + "_";
    const std::vector<std::string> variables = view->AllVariables();
    for (size_t i = 0; i < variables.size(); ++i) {
      if (!theta.IsBound(variables[i])) {
        theta.Bind(variables[i], Term::Variable(prefix + std::to_string(i)));
      }
    }
    for (const Atom& a : view->body()) body.push_back(theta.Apply(a));
    for (const Comparison& c : view->comparisons()) {
      comparisons.push_back(theta.Apply(c));
    }
  }
  return ConjunctiveQuery(rewriting.head(), std::move(body),
                          std::move(comparisons));
}

struct Parity {
  std::mutex mu;
  int64_t checks = 0;
  int64_t orders = 0;
  std::vector<ConjunctiveQuery> pre_rewritings;
  std::string mismatch;
};

Parity* g_parity = nullptr;

void ObserveCheck(const internal::Phase2Probe& probe) {
  const RewriteWork& work = *probe.work;
  const ConjunctiveQuery raw = ReferenceExpand(*probe.pre_rewriting, work.views);
  ConjunctiveQuery expansion = raw;
  if (work.options.simplify_expansions) {
    std::optional<ConjunctiveQuery> simplified = SimplifyQuery(raw);
    if (simplified.has_value()) expansion = *std::move(simplified);
  }
  ContainmentStats stats;
  const bool contained = CqacContainedCanonical(expansion, work.query, &stats);
  std::string mismatch;
  if (Expand(*probe.pre_rewriting, work.views) != raw) {
    mismatch = "Expand differs from the reference";
  } else if (probe.expansion->ToString() != expansion.ToString()) {
    mismatch = "expansion " + probe.expansion->ToString() + " vs " +
               expansion.ToString();
  } else if (probe.outcome->contained != contained) {
    mismatch = "verdict";
  } else if (probe.outcome->orders_enumerated != stats.orders_enumerated) {
    mismatch = "orders " + std::to_string(probe.outcome->orders_enumerated) +
               " vs " + std::to_string(stats.orders_enumerated);
  }
  if (!mismatch.empty()) {
    mismatch += " for " + probe.pre_rewriting->ToString();
  }
  std::lock_guard<std::mutex> lock(g_parity->mu);
  ++g_parity->checks;
  g_parity->orders += stats.orders_enumerated;
  g_parity->pre_rewritings.push_back(*probe.pre_rewriting);
  if (g_parity->mismatch.empty()) g_parity->mismatch = mismatch;
}

/// Totals over the runs of one test.
struct Totals {
  int64_t checks = 0;
  int64_t orders = 0;
  int64_t unsimplified_cases = 0;
};

/// Runs the case at jobs 1, 2 and 4 under the observer.  Returns the
/// Pre-Rewritings the serial run checked.
std::vector<ConjunctiveQuery> RunUnderObserver(const ConjunctiveQuery& query,
                                               const ViewSet& views,
                                               bool simplify,
                                               const std::string& context,
                                               Totals* totals) {
  std::vector<ConjunctiveQuery> serial_pres;
  for (const int jobs : {1, 2, 4}) {
    Parity parity;
    g_parity = &parity;
    internal::SetPhase2ObserverForTest(&ObserveCheck);
    RewriteOptions options;
    options.jobs = jobs;
    options.simplify_expansions = simplify;
    const RewriteResult result = EquivalentRewriter(query, views, options).Run();
    internal::SetPhase2ObserverForTest(nullptr);
    g_parity = nullptr;
    const std::string where = context + " jobs=" + std::to_string(jobs) +
                              (simplify ? "" : " unsimplified");
    EXPECT_EQ(parity.mismatch, "") << where;
    // Pooled checks past a failing one may run but are never merged.
    if (jobs == 1 || result.outcome == RewriteOutcome::kRewritingFound) {
      EXPECT_EQ(parity.checks, result.stats.phase2_checks) << where;
      EXPECT_EQ(parity.orders, result.stats.phase2_orders) << where;
    } else {
      EXPECT_GE(parity.checks, result.stats.phase2_checks) << where;
    }
    totals->checks += parity.checks;
    totals->orders += parity.orders;
    if (jobs == 1) serial_pres = std::move(parity.pre_rewritings);
  }
  return serial_pres;
}

/// Unsimplified expansions can carry far more variables than the check
/// enumerates after simplification (one generated case needs 1.5e8
/// orders), so the unsimplified runs are limited to the cases where every
/// raw expansion has at most this many total orders (CountTotalOrders
/// over its variables and the constants of expansion and query).
constexpr int64_t kMaxUnsimplifiedOrders = 100000;

bool UnsimplifiedIsAffordable(const ConjunctiveQuery& query,
                              const ViewSet& views,
                              const std::vector<ConjunctiveQuery>& pres) {
  for (const ConjunctiveQuery& pre : pres) {
    const ConjunctiveQuery raw = ReferenceExpand(pre, views);
    std::vector<Rational> constants = raw.Constants();
    for (const Rational& c : query.Constants()) {
      if (std::find(constants.begin(), constants.end(), c) == constants.end()) {
        constants.push_back(c);
      }
    }
    if (CountTotalOrders(static_cast<int>(raw.AllVariables().size()),
                         static_cast<int>(constants.size())) >
        kMaxUnsimplifiedOrders) {
      return false;
    }
  }
  return true;
}

/// The parity runs of one case: simplified, then unsimplified when
/// affordable.
void ExpectPhase2Parity(const ConjunctiveQuery& query, const ViewSet& views,
                        const std::string& context, Totals* totals) {
  const std::vector<ConjunctiveQuery> pres =
      RunUnderObserver(query, views, /*simplify=*/true, context, totals);
  if (!UnsimplifiedIsAffordable(query, views, pres)) return;
  RunUnderObserver(query, views, /*simplify=*/false, context, totals);
  ++totals->unsimplified_cases;
}

void ExpectCoverage(const Totals& totals) {
  EXPECT_GT(totals.checks, 0);
  EXPECT_GT(totals.orders, 0);
  EXPECT_GT(totals.unsimplified_cases, 0);
}

TEST(Phase2ParityTest, CorpusCases) {
  std::string error;
  const std::optional<std::vector<testing::CorpusEntry>> corpus =
      testing::LoadCorpusDir(CQAC_CORPUS_DIR, &error);
  ASSERT_TRUE(corpus.has_value()) << error;
  Totals totals;
  for (const testing::CorpusEntry& entry : *corpus) {
    ExpectPhase2Parity(entry.c.query, entry.c.views, entry.name, &totals);
  }
  ExpectCoverage(totals);
}

// The two chain queries of parallel_rewriter_test: one rewrites, one fails
// Phase 2 in a middle subtree.
TEST(Phase2ParityTest, ChainQueries) {
  const std::string chain =
      "q(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), A <= 8";
  Totals totals;
  ExpectPhase2Parity(Parser::MustParseRule(chain),
                     ViewSet(Parser::MustParseProgram(
                         "v1(A,C) :- r1(A,B), r2(B,C).\n"
                         "v2(C) :- r3(C,D), r4(D,E).")),
                     "chain", &totals);
  ExpectPhase2Parity(Parser::MustParseRule(chain + ", D > B"),
                     ViewSet(Parser::MustParseProgram(
                         "v1(A,C) :- r1(A,B), r2(B,C), B <= 8.\n"
                         "v2(C) :- r3(C,D), r4(D,E).")),
                     "chain failure", &totals);
  ExpectCoverage(totals);
}

// A failing check whose expansion lists a comparison variable late: the
// Pre-Rewriting's order only says A < 3, so the query constant 8 is
// missing from the expansion, yet the counterexample (an existential
// variable at or above 8) needs it among the orders' constants, and the
// orders walked before it depend on the variable order.
TEST(Phase2ParityTest, QueryConstantMissingFromTheExpansion) {
  Totals totals;
  ExpectPhase2Parity(
      Parser::MustParseRule(
          "q(A) :- r(A,B), s(A,C), B < 8, C < B, A < 3"),
      ViewSet(Parser::MustParseProgram(
          "v(A) :- r(A,B), s(A,C), C < B, A < 3.")),
      "query constant", &totals);
  ExpectCoverage(totals);
}

// The cases cqacfuzz generates (as --dump-workloads draws them), seeds 1-2.
TEST(Phase2ParityTest, FuzzGeneratedCases) {
  Totals totals;
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    std::mt19937_64 meta(seed);
    for (int i = 0; i < 25; ++i) {
      const WorkloadInstance instance =
          WorkloadGenerator(testing::DrawFuzzConfig(meta)).Generate();
      ExpectPhase2Parity(instance.query, instance.views,
                         "seed " + std::to_string(seed) + " case " +
                             std::to_string(i),
                         &totals);
    }
  }
  ExpectCoverage(totals);
}

}  // namespace
}  // namespace cqac

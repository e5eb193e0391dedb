// Byte-equality golden test for SimplifyQuery.
//
// tests/data/simplify_golden.txt holds (input expansion, output) pairs:
// one `<input rule>\t<output rule or "unsat">` line each.  The inputs are
// the expansions of the Pre-Rewritings that Phase 1 produces on
// WorkloadGenerator instances at the six Fig. 4 grid points of the fig4
// workload (generator seeds 2000-2011) and on every tests/corpus case.
// SimplifyQuery's output is its contract with the Phase-2 containment
// check, so it must not drift: not to an equivalent query, not to a
// different representative of a folded class.  A mismatch here is a bug in
// SimplifyQuery; the golden lines are never re-recorded to match new code.
//
// The DISABLED_Record test below regenerates the file's body (see the
// file header for the commit it was recorded at).

#ifndef CQAC_CORPUS_DIR
#error "CQAC_CORPUS_DIR must point at tests/corpus"
#endif
#ifndef CQAC_GOLDEN_FILE
#error "CQAC_GOLDEN_FILE must point at tests/data/simplify_golden.txt"
#endif

#include <algorithm>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "constraints/ac_solver.h"
#include "constraints/orders.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "rewriting/expansion.h"
#include "testing/corpus.h"
#include "workload/generator.h"

namespace cqac {
namespace {

struct GoldenCase {
  std::string input;
  std::string output;
};

std::vector<GoldenCase> LoadGolden() {
  std::vector<GoldenCase> cases;
  std::ifstream in(CQAC_GOLDEN_FILE);
  EXPECT_TRUE(in.good()) << "cannot open " << CQAC_GOLDEN_FILE;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t tab = line.find('\t');
    EXPECT_NE(tab, std::string::npos) << line;
    if (tab == std::string::npos) continue;
    cases.push_back({line.substr(0, tab), line.substr(tab + 1)});
  }
  return cases;
}

std::string Render(const std::optional<ConjunctiveQuery>& simplified) {
  return simplified.has_value() ? simplified->ToString() : "unsat";
}

TEST(SimplifyGoldenTest, HasAboutThreeHundredCases) {
  EXPECT_GE(LoadGolden().size(), 250u);
}

TEST(SimplifyGoldenTest, OutputsAreByteIdentical) {
  for (const GoldenCase& c : LoadGolden()) {
    const ConjunctiveQuery input = Parser::MustParseRule(c.input);
    ASSERT_EQ(input.ToString(), c.input) << "golden input does not round-trip";
    EXPECT_EQ(Render(SimplifyQuery(input)), c.output) << c.input;
  }
}

// SimplifyQuery is called concurrently by the pooled rewriting driver and
// by cqacd's connection threads; it must keep no shared scratch.  Run
// under ThreadSanitizer via the `tsan` label.
TEST(SimplifyGoldenTest, ConcurrentCallsMatchSerial) {
  std::vector<ConjunctiveQuery> inputs;
  std::vector<std::string> serial;
  for (const GoldenCase& c : LoadGolden()) {
    inputs.push_back(Parser::MustParseRule(c.input));
    serial.push_back(Render(SimplifyQuery(inputs.back())));
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&inputs, &results, t] {
      // Each thread starts at a different offset so the same inputs are
      // simplified at the same moment by different threads.
      const size_t n = inputs.size();
      results[t].resize(n);
      for (size_t k = 0; k < n; ++k) {
        const size_t i = (k + t * n / kThreads) % n;
        results[t][i] = Render(SimplifyQuery(inputs[i]));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_EQ(results[t][i], serial[i]) << "thread " << t << ": "
                                          << inputs[i].ToString();
    }
  }
}

// The fold order defines the counters as well as the output: one pass over
// the golden inputs must add exactly these totals, measured at commit
// c923873 (a Release build, before the budgeted fold search moved onto term
// ids).  simplify.sat_checks is not pinned: since that move it also counts
// the search's leaf implication checks.
TEST(SimplifyGoldenTest, FoldCountersMatchRecordedTotals) {
  const std::vector<std::pair<std::string, int64_t>> expected = {
      {"simplify.fold_candidates", 7524},
      {"simplify.single_folds", 1029},
      {"simplify.search_leaf_checks", 34},
      {"simplify.fold_budget_exhausted", 0},
  };
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  std::vector<int64_t> before;
  for (const auto& [name, total] : expected) {
    before.push_back(registry.counter(name).value());
  }
  for (const GoldenCase& c : LoadGolden()) {
    SimplifyQuery(Parser::MustParseRule(c.input));
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(registry.counter(expected[i].first).value() - before[i],
              expected[i].second)
        << expected[i].first;
  }
}

// --- Recording -------------------------------------------------------------

/// Expansion variables (`_eN_M`) and MCD-fresh variables (`_fN`) do not
/// parse; prefix them with `Z`, which keeps their relative order and sorts
/// them after the query's own upper-case names, as `_` does.
ConjunctiveQuery ParserLegal(const ConjunctiveQuery& q) {
  Substitution rename;
  for (const std::string& v : q.AllVariables()) {
    if (v[0] == '_') rename.Bind(v, Term::Variable("Z" + v));
  }
  return q.ApplySubstitution(rename);
}

/// The distinct expansions of the Pre-Rewritings that Phase 1 produces on
/// `query`/`views`, in enumeration order.  Databases on which Phase 1
/// fails are skipped rather than ending the run, so every Pre-Rewriting
/// the enumeration reaches within `max_orders` contributes an input.
std::vector<ConjunctiveQuery> PhaseTwoInputs(const ConjunctiveQuery& query,
                                             const ViewSet& views,
                                             int max_orders) {
  std::vector<ConjunctiveQuery> out;
  if (!AcSolver::IsSatisfiable(query.comparisons())) return out;
  const RewriteOptions options;
  const RewriteWork work = PrepareRewriteWork(query, views, options);
  std::set<std::string> seen;
  int orders = 0;
  ForEachTotalOrder(
      work.query.AllVariables(), work.constants,
      [&](const TotalOrder& order) {
        const DatabaseOutcome outcome = ProcessCanonicalDatabase(work, order);
        if (outcome.status == DatabaseOutcome::Status::kKept) {
          const ConjunctiveQuery expansion =
              ParserLegal(Expand(*outcome.pre_rewriting, views));
          if (seen.insert(expansion.ToString()).second) {
            out.push_back(expansion);
          }
        }
        return ++orders < max_orders;
      });
  return out;
}

/// Up to `k` of `all`, evenly spaced, first and last included.
std::vector<ConjunctiveQuery> Spread(const std::vector<ConjunctiveQuery>& all,
                                     size_t k) {
  if (all.size() <= k) return all;
  std::vector<ConjunctiveQuery> out;
  for (size_t i = 0; i < k; ++i) {
    out.push_back(all[i * (all.size() - 1) / (k - 1)]);
  }
  return out;
}

// Writes simplify_golden.recorded.txt (no header) into the working
// directory.  Run with
//   simplify_golden_test --gtest_also_run_disabled_tests
//       --gtest_filter='*DISABLED_Record'
TEST(SimplifyGoldenTest, DISABLED_Record) {
  struct Point {
    int terms;
    int views;
    bool two_constants;
  };
  // The fig4 workload's grid points (4-6 variables+constants, 2-10 views).
  const std::vector<Point> points = {{4, 2, false}, {4, 6, false},
                                     {4, 10, false}, {5, 4, false},
                                     {6, 2, true},  {6, 2, false}};
  std::vector<ConjunctiveQuery> inputs;
  for (const Point& p : points) {
    for (uint64_t seed = 2000; seed <= 2011; ++seed) {
      WorkloadConfig config;
      config.num_constants = p.two_constants ? 2 : 1;
      config.num_variables = p.terms - config.num_constants;
      config.num_subgoals = std::max(3, config.num_variables - 1);
      config.view_subgoals = 2;
      config.num_views = p.views;
      config.seed = seed;
      const WorkloadInstance instance = WorkloadGenerator(config).Generate();
      for (ConjunctiveQuery& q :
           Spread(PhaseTwoInputs(instance.query, instance.views, 5000), 4)) {
        inputs.push_back(std::move(q));
      }
    }
  }
  std::string error;
  const std::optional<std::vector<testing::CorpusEntry>> corpus =
      testing::LoadCorpusDir(CQAC_CORPUS_DIR, &error);
  ASSERT_TRUE(corpus.has_value()) << error;
  for (const testing::CorpusEntry& entry : *corpus) {
    for (ConjunctiveQuery& q :
         Spread(PhaseTwoInputs(entry.c.query, entry.c.views, 5000), 2)) {
      inputs.push_back(std::move(q));
    }
  }
  std::set<std::string> seen;
  std::ofstream out("simplify_golden.recorded.txt");
  for (const ConjunctiveQuery& q : inputs) {
    const std::string text = q.ToString();
    if (!seen.insert(text).second) continue;
    ASSERT_EQ(Parser::MustParseRule(text).ToString(), text);
    out << text << '\t' << Render(SimplifyQuery(q)) << '\n';
  }
}

}  // namespace
}  // namespace cqac

// Tests of the rewriting driver's schedules: fanning the work units out
// over a thread pool must be byte-identical to running them inline, for
// every thread count and task interleaving, and the first failing
// canonical database must cancel outstanding work (the paper's "some D_i
// has no MCR => no rewriting exists" short-circuit).

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "constraints/orders.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "rewriting/explain.h"
#include "workload/generator.h"

namespace cqac {
namespace {

void ExpectStatsEqual(const RewriteStats& a, const RewriteStats& b) {
  EXPECT_EQ(a.canonical_databases, b.canonical_databases);
  EXPECT_EQ(a.kept_canonical_databases, b.kept_canonical_databases);
  EXPECT_EQ(a.v0_variants, b.v0_variants);
  EXPECT_EQ(a.mcds_formed, b.mcds_formed);
  EXPECT_EQ(a.mcds_kept_total, b.mcds_kept_total);
  EXPECT_EQ(a.view_tuples_total, b.view_tuples_total);
  EXPECT_EQ(a.phase2_checks, b.phase2_checks);
  EXPECT_EQ(a.phase2_orders, b.phase2_orders);
}

void ExpectResultsEqual(const RewriteResult& serial,
                        const RewriteResult& parallel,
                        const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(serial.outcome, parallel.outcome);
  EXPECT_EQ(serial.failure_reason, parallel.failure_reason);
  EXPECT_EQ(serial.verified, parallel.verified);
  EXPECT_EQ(serial.rewriting.ToString(), parallel.rewriting.ToString());
  ExpectStatsEqual(serial.stats, parallel.stats);
}

// RunPreparedRewrite over a freshly prepared work context, the way
// EquivalentRewriter::Run calls it, but with the report exposed.
RewriteResult RunDirect(const ConjunctiveQuery& query, const ViewSet& views,
                        const RewriteOptions& options,
                        ParallelRewriteReport* report) {
  if (std::optional<RewriteResult> empty =
          RewriteOfUnsatisfiableQuery(query, views, options)) {
    return *std::move(empty);
  }
  const RewriteWork work = PrepareRewriteWork(query, views, options);
  return RunPreparedRewrite(work, options, report);
}

TEST(ParallelRewriterTest, MergeIsElementwiseSum) {
  RewriteStats a;
  a.canonical_databases = 3;
  a.phase2_orders = 7;
  RewriteStats b;
  b.canonical_databases = 2;
  b.kept_canonical_databases = 1;
  a.Merge(b);
  EXPECT_EQ(a.canonical_databases, 5);
  EXPECT_EQ(a.kept_canonical_databases, 1);
  EXPECT_EQ(a.phase2_orders, 7);
}

// The satellite requirement: serial and 2/4/8-thread runs over ~50
// generated instances produce identical RewriteResults.
TEST(ParallelRewriterTest, DeterministicAcrossThreadCountsOnWorkloads) {
  int found = 0;
  int failed = 0;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    WorkloadConfig config;
    config.num_variables = 3;
    config.num_constants = 1;
    config.num_subgoals = 2;
    config.num_views = 3;
    config.view_subgoals = 2;
    // Half the instances get only distractor views (unrelated to the
    // query), so the sweep exercises the no-rewriting early-exit path too.
    config.distractor_fraction = seed % 2 == 0 ? 0.25 : 1.0;
    config.seed = seed;
    WorkloadGenerator generator(config);
    const WorkloadInstance instance = generator.Generate();

    RewriteOptions options;
    options.jobs = 1;
    const RewriteResult serial =
        EquivalentRewriter(instance.query, instance.views, options).Run();
    if (serial.outcome == RewriteOutcome::kRewritingFound) {
      ++found;
    } else {
      ++failed;
    }

    for (int jobs : {2, 4, 8}) {
      RewriteOptions parallel_options = options;
      parallel_options.jobs = jobs;
      ParallelRewriteReport report;
      const RewriteResult parallel =
          RunDirect(instance.query, instance.views, parallel_options,
                    &report);
      if (report.db_tasks_total > 0) {
        EXPECT_EQ(report.jobs, jobs);
      }
      const RewriteResult via_rewriter =
          EquivalentRewriter(instance.query, instance.views, parallel_options)
              .Run();
      ExpectResultsEqual(serial, parallel,
                         "seed=" + std::to_string(seed) + " direct");
      ExpectResultsEqual(
          serial, via_rewriter,
          "seed=" + std::to_string(seed) + " jobs=" + std::to_string(jobs));
    }
  }
  // The workload must exercise both outcomes, or the test proves little.
  EXPECT_GT(found, 0);
  EXPECT_GT(failed, 0);
}

// The explain trace (the paper's two-column tableau) is part of the
// determinism contract too.
TEST(ParallelRewriterTest, DeterministicExplainTrace) {
  for (uint64_t seed : {3u, 11u, 29u}) {
    WorkloadConfig config;
    config.num_variables = 3;
    config.num_constants = 1;
    config.num_subgoals = 2;
    config.num_views = 2;
    config.seed = seed;
    WorkloadGenerator generator(config);
    const WorkloadInstance instance = generator.Generate();

    RewriteOptions options;
    options.explain = true;
    options.jobs = 1;
    const RewriteResult serial =
        EquivalentRewriter(instance.query, instance.views, options).Run();
    options.jobs = 4;
    const RewriteResult parallel =
        EquivalentRewriter(instance.query, instance.views, options).Run();
    ExpectResultsEqual(serial, parallel, "seed=" + std::to_string(seed));
    EXPECT_EQ(TableauToString(serial.trace), TableauToString(parallel.trace));
  }
}

// Rewriting options that exercise the post-Phase-2 tail (coalescing,
// minimization, verification) must also match.
TEST(ParallelRewriterTest, DeterministicWithOutputOptions) {
  const ConjunctiveQuery query = Parser::MustParseRule(
      "q(A) :- r(A), s(A,A), A <= 8");
  const ViewSet views(Parser::MustParseProgram(
      "v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z."));

  RewriteOptions options;
  options.coalesce_output = true;
  options.minimize_output = true;
  options.verify = true;
  options.jobs = 1;
  const RewriteResult serial = EquivalentRewriter(query, views, options).Run();
  options.jobs = 4;
  const RewriteResult parallel =
      EquivalentRewriter(query, views, options).Run();
  ExpectResultsEqual(serial, parallel, "paper example");
  EXPECT_EQ(serial.outcome, RewriteOutcome::kRewritingFound);
  EXPECT_TRUE(serial.verified);
}

// A guaranteed-failing canonical database (views over a predicate foreign
// to the query produce no tuples anywhere) must cancel outstanding subtree
// tasks, observable via the scheduling report — and still reproduce the
// serial answer, which stops at the FIRST failing database.
TEST(ParallelRewriterTest, FailingDatabaseCancelsOutstandingTasks) {
  const ConjunctiveQuery query = Parser::MustParseRule(
      "q(X) :- p0(X,Y), p0(Y,Z), p0(Z,W), p0(W,U)");
  const ViewSet views(
      Parser::MustParseProgram("v(A) :- z9(A,B)."));

  RewriteOptions options;
  options.jobs = 1;
  const RewriteResult serial = EquivalentRewriter(query, views, options).Run();
  ASSERT_EQ(serial.outcome, RewriteOutcome::kNoRewriting);
  // The serial loop dies on the very first canonical database.
  EXPECT_EQ(serial.stats.canonical_databases, 1);

  options.jobs = 4;
  ParallelRewriteReport report;
  const RewriteResult parallel = RunDirect(query, views, options, &report);
  ExpectResultsEqual(serial, parallel, "cancellation");
  EXPECT_EQ(report.jobs, 4);

  // 5 variables => 541 canonical databases.  Four threads want at least
  // 64 subtrees, so the split is at depth 4: 75 subtree tasks, all handed
  // out.  The failure in subtree 0 cancels every later subtree that has
  // not started yet.
  EXPECT_EQ(report.db_tasks_total, 75);
  EXPECT_GT(report.db_tasks_cancelled, 0);
  EXPECT_EQ(report.db_tasks_executed + report.db_tasks_cancelled,
            report.db_tasks_total);
  EXPECT_LT(report.db_tasks_executed, report.db_tasks_total);
}

// A chain query of the perfbench `chain` shape, one variable shorter:
// 5 variables and the constant 8, so 4683 canonical databases.  Two and
// four threads both split it at depth 3 into 75 subtrees.
constexpr char kChainQuery[] =
    "q(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), A <= 8";
constexpr char kChainViews[] =
    "v1(A,C) :- r1(A,B), r2(B,C).\n"
    "v2(C) :- r3(C,D), r4(D,E).";
constexpr int kChainSplitDepth = 3;

// offsets[s]: the serial index of subtree s's first database; the last
// entry is the total.
std::vector<int64_t> ChainSubtreeOffsets() {
  std::vector<int64_t> offsets = {0};
  for (const TotalOrder& prefix : TotalOrderPrefixes(
           {"A", "B", "C", "D", "E"}, {Rational(8)}, kChainSplitDepth)) {
    offsets.push_back(offsets.back() +
                      CountOrderCompletions(
                          static_cast<int>(prefix.blocks.size()),
                          5 - kChainSplitDepth));
  }
  return offsets;
}

// Every run of `query` at jobs 1/2/4 under `options` must agree, including
// the explain tableau.  Returns the serial result.
RewriteResult ExpectChainParity(const std::string& query,
                                const ViewSet& views, RewriteOptions options,
                                const std::string& context) {
  const ConjunctiveQuery q = Parser::MustParseRule(query);
  options.jobs = 1;
  const RewriteResult serial = EquivalentRewriter(q, views, options).Run();
  for (const int jobs : {2, 4}) {
    options.jobs = jobs;
    ParallelRewriteReport report;
    const RewriteResult parallel = RunDirect(q, views, options, &report);
    const std::string where = context + " jobs=" + std::to_string(jobs);
    ExpectResultsEqual(serial, parallel, where);
    EXPECT_EQ(TableauToString(serial.trace), TableauToString(parallel.trace))
        << where;
    EXPECT_LE(report.db_tasks_total, 75) << where;
    EXPECT_EQ(report.db_tasks_executed + report.db_tasks_cancelled,
              report.db_tasks_total)
        << where;
  }
  return serial;
}

TEST(ParallelRewriterTest, ChainQueryParityWithExplain) {
  EXPECT_EQ(CountTotalOrders(5, 1), 4683);
  EXPECT_EQ(ChainSubtreeOffsets().size(), 76u);
  const ViewSet views(Parser::MustParseProgram(kChainViews));
  RewriteOptions options;
  const RewriteResult plain =
      ExpectChainParity(kChainQuery, views, options, "plain");
  EXPECT_EQ(plain.outcome, RewriteOutcome::kRewritingFound);
  EXPECT_EQ(plain.stats.canonical_databases, 4683);

  // Every subtree is handed out and runs when nothing fails.
  ParallelRewriteReport report;
  options.jobs = 2;
  RunDirect(Parser::MustParseRule(kChainQuery), views, options, &report);
  EXPECT_EQ(report.db_tasks_total, 75);
  EXPECT_EQ(report.db_tasks_executed, 75);

  options.explain = true;
  const RewriteResult explained =
      ExpectChainParity(kChainQuery, views, options, "explain");
  EXPECT_EQ(static_cast<int64_t>(explained.trace.databases.size()), 4683);
}

// max_canonical_databases inside a subtree, exactly on the boundaries
// after the first and second subtrees, and on and past the total.
TEST(ParallelRewriterTest, ChainQueryBudgetParity) {
  const std::vector<int64_t> offsets = ChainSubtreeOffsets();
  ASSERT_EQ(offsets[1], 13);
  ASSERT_EQ(offsets[2], 44);
  ASSERT_EQ(offsets.back(), 4683);

  const ViewSet views(Parser::MustParseProgram(kChainViews));
  for (const int64_t budget : {int64_t{7}, offsets[1], offsets[2],
                               int64_t{30}, int64_t{4682}, int64_t{4683},
                               int64_t{5000}}) {
    const std::string context = "budget=" + std::to_string(budget);
    RewriteOptions options;
    options.max_canonical_databases = budget;
    const RewriteResult serial =
        ExpectChainParity(kChainQuery, views, options, context);
    if (budget < 4683) {
      EXPECT_EQ(serial.outcome, RewriteOutcome::kAborted) << context;
      // The abort-triggering database is counted.
      EXPECT_EQ(serial.stats.canonical_databases, budget + 1) << context;
    } else {
      EXPECT_EQ(serial.outcome, RewriteOutcome::kRewritingFound) << context;
      EXPECT_EQ(serial.stats.canonical_databases, 4683) << context;
    }
  }
}

// v1 covers r1/r2 only when B <= 8, so the first kept database with B > 8
// fails.  The query keeps only databases with D > B, which puts that
// failure deep inside subtree 8 of 75 (prefix A = C = 8 < B): the
// subtrees before it must all merge, and the ones after it, running
// meanwhile, are cancelled and dropped.
TEST(ParallelRewriterTest, ChainQueryFailureInMiddleSubtree) {
  const ViewSet views(Parser::MustParseProgram(
      "v1(A,C) :- r1(A,B), r2(B,C), B <= 8.\n"
      "v2(C) :- r3(C,D), r4(D,E)."));
  const std::string query = std::string(kChainQuery) + ", D > B";
  const RewriteResult serial =
      ExpectChainParity(query, views, RewriteOptions(), "middle failure");
  ASSERT_EQ(serial.outcome, RewriteOutcome::kNoRewriting);
  // Subtree 8's first 24 orders have D <= B and are skipped; the 25th
  // places D above B and fails.
  const std::vector<int64_t> offsets = ChainSubtreeOffsets();
  EXPECT_EQ(offsets[8], 308);
  EXPECT_EQ(serial.stats.canonical_databases, offsets[8] + 25);
  EXPECT_LT(offsets[8] + 25, offsets[9]);

  // Subtrees 0-8 all run (any of them could hold an earlier failure);
  // some of the 66 after the failing one are cancelled.
  ParallelRewriteReport report;
  RewriteOptions options;
  options.jobs = 4;
  RunDirect(Parser::MustParseRule(query), views, options, &report);
  EXPECT_EQ(report.jobs, 4);
  EXPECT_EQ(report.db_tasks_total, 75);
  EXPECT_GE(report.db_tasks_executed, 9);
  EXPECT_GT(report.db_tasks_cancelled, 0);
}

// The serial abort semantics (budget counts the abort-triggering
// database) must hold in parallel as well.
TEST(ParallelRewriterTest, AbortBudgetParity) {
  WorkloadConfig config;
  config.num_variables = 4;
  config.num_constants = 1;
  config.seed = 5;
  WorkloadGenerator generator(config);
  const WorkloadInstance instance = generator.Generate();

  RewriteOptions options;
  options.max_canonical_databases = 10;
  options.jobs = 1;
  const RewriteResult serial =
      EquivalentRewriter(instance.query, instance.views, options).Run();
  options.jobs = 4;
  const RewriteResult parallel =
      EquivalentRewriter(instance.query, instance.views, options).Run();
  ExpectResultsEqual(serial, parallel, "abort");
  if (serial.outcome == RewriteOutcome::kAborted) {
    EXPECT_EQ(serial.stats.canonical_databases, 11);
  }
}

// jobs=0 resolves to hardware concurrency and still matches serial.
TEST(ParallelRewriterTest, HardwareConcurrencyDefault) {
  const ConjunctiveQuery query = Parser::MustParseRule(
      "q(A) :- r(A), s(A,A), A <= 8");
  const ViewSet views(Parser::MustParseProgram(
      "v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z."));

  RewriteOptions options;
  options.jobs = 1;
  const RewriteResult serial = EquivalentRewriter(query, views, options).Run();
  options.jobs = 0;
  const RewriteResult parallel =
      EquivalentRewriter(query, views, options).Run();
  ExpectResultsEqual(serial, parallel, "jobs=0");
}

// A token cancelled before Run() aborts both drivers at the first poll
// with the dedicated "cancelled" reason — the mechanism the rewrite
// service's per-request deadlines build on.
TEST(ParallelRewriterTest, PreCancelledTokenAbortsSerialAndParallel) {
  const ConjunctiveQuery query = Parser::MustParseRule(
      "q(A) :- r(A), s(A,A), A <= 8");
  const ViewSet views(Parser::MustParseProgram(
      "v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z."));

  CancellationToken token;
  token.Cancel();
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    RewriteOptions options;
    options.jobs = jobs;
    options.cancel = &token;
    const RewriteResult result =
        EquivalentRewriter(query, views, options).Run();
    EXPECT_EQ(result.outcome, RewriteOutcome::kAborted);
    EXPECT_EQ(result.failure_reason, kCancelledReason);
  }
}

// An unset token changes nothing: results stay byte-identical to runs
// with no token at all.
TEST(ParallelRewriterTest, UnsetTokenIsInert) {
  const ConjunctiveQuery query = Parser::MustParseRule(
      "q(A) :- r(A), s(A,A), A <= 8");
  const ViewSet views(Parser::MustParseProgram(
      "v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z."));

  CancellationToken token;
  for (const int jobs : {1, 4}) {
    RewriteOptions plain;
    plain.jobs = jobs;
    RewriteOptions with_token = plain;
    with_token.cancel = &token;
    const RewriteResult a = EquivalentRewriter(query, views, plain).Run();
    const RewriteResult b =
        EquivalentRewriter(query, views, with_token).Run();
    ExpectResultsEqual(a, b, "jobs=" + std::to_string(jobs));
  }
}

}  // namespace
}  // namespace cqac

#include "runtime/batch_driver.h"

#include <sstream>
#include <string>

#include "gtest/gtest.h"

namespace cqac {
namespace {

// The paper's running example as a batch job block.
constexpr char kPaperJob[] =
    "view v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z\n"
    "query q(A) :- r(A), s(A,A), A <= 8\n";

TEST(BatchDriverTest, EmptyInput) {
  std::istringstream in("");
  std::ostringstream out;
  const BatchSummary summary = RunBatch(in, out);
  EXPECT_EQ(summary.jobs_total, 0);
  EXPECT_EQ(out.str(), "batch: 0 jobs\n");
}

TEST(BatchDriverTest, CommentsAndSeparatorsProduceNoJobs) {
  std::istringstream in("% a comment\n# another\n---\nrun\n\n\n");
  std::ostringstream out;
  const BatchSummary summary = RunBatch(in, out);
  EXPECT_EQ(summary.jobs_total, 0);
}

TEST(BatchDriverTest, SingleJobFindsPaperRewriting) {
  std::istringstream in(kPaperJob);
  std::ostringstream out;
  const BatchSummary summary = RunBatch(in, out);
  EXPECT_EQ(summary.jobs_total, 1);
  EXPECT_EQ(summary.found, 1);
  EXPECT_EQ(summary.errors, 0);
  EXPECT_NE(out.str().find("job 0: equivalent rewriting"), std::string::npos);
}

TEST(BatchDriverTest, OutputsAppearInInputOrder) {
  std::string input;
  for (int i = 0; i < 6; ++i) {
    input += kPaperJob;
    input += "run\n";
  }
  std::istringstream in(input);
  std::ostringstream out;
  BatchOptions options;
  options.jobs = 4;
  const BatchSummary summary = RunBatch(in, out, options);
  EXPECT_EQ(summary.jobs_total, 6);
  EXPECT_EQ(summary.found, 6);

  size_t previous = 0;
  for (int i = 0; i < 6; ++i) {
    const size_t at = out.str().find("job " + std::to_string(i) + ":");
    ASSERT_NE(at, std::string::npos) << "missing job " << i;
    EXPECT_GE(at, previous) << "job " << i << " printed out of order";
    previous = at;
  }
}

TEST(BatchDriverTest, SharedCacheServesDuplicateJobs) {
  std::istringstream in(std::string(kPaperJob) + "run\n" + kPaperJob);
  std::ostringstream out;
  // One worker runs the jobs one after the other.  With more, the second
  // job can probe the semantic cache before the first stored its answer.
  BatchOptions options;
  options.jobs = 1;
  const BatchSummary summary = RunBatch(in, out, options);
  EXPECT_EQ(summary.jobs_total, 2);
  EXPECT_EQ(summary.found, 2);
  // Both jobs share one catalog; the second replays the first's answer.
  EXPECT_EQ(summary.catalogs_built, 1);
  EXPECT_EQ(summary.catalog_semantic_misses, 1);
  EXPECT_EQ(summary.catalog_semantic_hits, 1);

  // The replayed block differs from the computed one only in its index.
  const std::string text = out.str();
  const std::string first_prefix = "job 0: ";
  const std::string second_prefix = "job 1: ";
  const size_t second = text.find(second_prefix);
  const size_t footer = text.find("batch: ");
  ASSERT_EQ(text.rfind(first_prefix, 0), 0u);
  ASSERT_NE(second, std::string::npos);
  ASSERT_NE(footer, std::string::npos);
  EXPECT_EQ(text.substr(first_prefix.size(), second - first_prefix.size()),
            text.substr(second + second_prefix.size(),
                        footer - second - second_prefix.size()));
  EXPECT_EQ(text.find("cache: "), std::string::npos);  // removed in v9
  EXPECT_NE(text.find("catalog: 1 built"), std::string::npos);
  EXPECT_EQ(text.find("plan"), std::string::npos);
}

TEST(BatchDriverTest, ParseErrorsAreLocalizedToTheirJob) {
  std::istringstream in(
      "query this is not datalog\n"
      "run\n" +
      std::string(kPaperJob) +
      "run\n"
      "view v(X) :- p(X,Y)\n");
  std::ostringstream out;
  const BatchSummary summary = RunBatch(in, out);
  EXPECT_EQ(summary.jobs_total, 3);
  EXPECT_EQ(summary.errors, 2);
  EXPECT_EQ(summary.found, 1);
  EXPECT_NE(out.str().find("job 0: error: bad query"), std::string::npos);
  EXPECT_NE(out.str().find("job 1: equivalent rewriting"), std::string::npos);
  EXPECT_NE(out.str().find("job 2: error: job has views but no query"),
            std::string::npos);
}

TEST(BatchDriverTest, UnknownDirectiveIsAnError) {
  std::istringstream in("frobnicate everything\n");
  std::ostringstream out;
  const BatchSummary summary = RunBatch(in, out);
  EXPECT_EQ(summary.jobs_total, 1);
  EXPECT_EQ(summary.errors, 1);
  EXPECT_NE(out.str().find("unknown directive 'frobnicate'"),
            std::string::npos);
}

TEST(BatchDriverTest, NoRewritingJobCountedAsNone) {
  std::istringstream in(
      "view v(A) :- z9(A,B)\n"
      "query q(X) :- p0(X,Y)\n");
  std::ostringstream out;
  const BatchSummary summary = RunBatch(in, out);
  EXPECT_EQ(summary.jobs_total, 1);
  EXPECT_EQ(summary.none, 1);
  EXPECT_NE(out.str().find("no equivalent rewriting"), std::string::npos);
}

TEST(BatchDriverTest, EchoIncludesDefinitions) {
  std::istringstream in(kPaperJob);
  std::ostringstream out;
  BatchOptions options;
  options.echo = true;
  RunBatch(in, out, options);
  EXPECT_NE(out.str().find("query q(A)"), std::string::npos);
  EXPECT_NE(out.str().find("view v(Y,Z)"), std::string::npos);
}

TEST(BatchDriverTest, StatsFooterAggregatesPhase1AcrossJobs) {
  std::istringstream in(std::string(kPaperJob) + "\nrun\n" + kPaperJob);
  std::ostringstream out;
  BatchOptions options;
  options.print_stats = true;
  const BatchSummary summary = RunBatch(in, out, options);
  EXPECT_EQ(summary.jobs_total, 2);
  EXPECT_NE(out.str().find("phase-1: "), std::string::npos);
  EXPECT_GT(summary.rewrite.canonical_databases, 0);
  // Each job's canonical databases land in the merged total, and the memo
  // split accounts for every kept database.
  EXPECT_EQ(summary.rewrite.phase1_memo_hits +
                summary.rewrite.phase1_memo_misses,
            summary.rewrite.kept_canonical_databases);
}

TEST(BatchDriverTest, JsonSummaryIncludesMemoCounters) {
  std::istringstream in(kPaperJob);
  std::ostringstream out;
  BatchOptions options;
  options.json_summary = true;
  RunBatch(in, out, options);
  EXPECT_NE(out.str().find("{\"schema_version\": 10, \"jobs\": 1"),
            std::string::npos);
  EXPECT_NE(out.str().find("\"phase1_memo_hits\": "), std::string::npos);
  EXPECT_NE(out.str().find("\"phase1_memo_misses\": "), std::string::npos);
  EXPECT_NE(out.str().find("\"phase1_ns\": "), std::string::npos);
  EXPECT_EQ(out.str().find("tier"), std::string::npos);  // removed in v8
  // Removed in v9 with the containment memo and the plan cache.
  EXPECT_EQ(out.str().find("\"cache_"), std::string::npos);
  EXPECT_EQ(out.str().find("plan"), std::string::npos);
}

TEST(BatchDriverTest, FooterCarriesTheServiceCounters) {
  std::istringstream in(kPaperJob);
  std::ostringstream out;
  RunBatch(in, out);
  // The stdin driver has no deadlines or admission control, but the
  // footer reports the shared taxonomy either way so batch and service
  // outputs stay aligned.
  EXPECT_NE(out.str().find("0 deadline-exceeded, 0 rejected"),
            std::string::npos);
}

TEST(BatchDriverTest, JsonSummaryCarriesTheServiceCounters) {
  std::istringstream in(kPaperJob);
  std::ostringstream out;
  BatchOptions options;
  options.json_summary = true;
  RunBatch(in, out, options);
  EXPECT_NE(out.str().find("\"deadline_exceeded\": 0"), std::string::npos);
  EXPECT_NE(out.str().find("\"rejected\": 0"), std::string::npos);
}

TEST(WriteBatchFooterTest, ReportsNonzeroServiceCounters) {
  BatchSummary summary;
  summary.jobs_total = 5;
  summary.found = 2;
  summary.deadline_exceeded = 2;
  summary.rejected = 1;
  std::ostringstream out;
  WriteBatchFooter(out, summary, BatchOptions());
  EXPECT_NE(out.str().find(
                "batch: 5 jobs, 2 found, 0 none, 0 aborted, "
                "2 deadline-exceeded, 1 rejected, 0 errors"),
            std::string::npos);
}

TEST(ParseJobBlockTest, ParsesOneBlock) {
  const BatchJob job = ParseJobBlock(kPaperJob);
  EXPECT_TRUE(job.error.empty()) << job.error;
  ASSERT_TRUE(job.query.has_value());
  EXPECT_EQ(job.query->name(), "q");
  EXPECT_EQ(job.views.views().size(), 1u);
}

TEST(ParseJobBlockTest, EmptyAndMultiJobTextsAreErrors) {
  EXPECT_EQ(ParseJobBlock("").error, "empty job");
  EXPECT_EQ(ParseJobBlock("% only a comment\n").error, "empty job");
  const BatchJob multi =
      ParseJobBlock(std::string(kPaperJob) + "run\n" + kPaperJob);
  EXPECT_NE(multi.error.find("send one job per request"), std::string::npos);
}

TEST(ParseJobBlockTest, SharesStreamParserErrorWording) {
  // The service parses request blocks with the same code as the stdin
  // driver, so error strings match verbatim.
  EXPECT_EQ(ParseJobBlock("view v(X) :- p(X,Y)\n").error,
            "job has views but no query");
  EXPECT_NE(ParseJobBlock("frobnicate\n").error.find("unknown directive"),
            std::string::npos);
}

TEST(BatchDriverTest, FootersAbsentByDefault) {
  std::istringstream in(kPaperJob);
  std::ostringstream out;
  RunBatch(in, out);
  EXPECT_EQ(out.str().find("phase-1: "), std::string::npos);
  EXPECT_EQ(out.str().find("{\"jobs\""), std::string::npos);
}

}  // namespace
}  // namespace cqac

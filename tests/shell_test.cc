#include "cli/shell.h"

#include <sstream>

#include "gtest/gtest.h"

namespace cqac {
namespace {

/// Runs a scripted session and returns everything the shell printed.
std::string RunSession(const std::string& script) {
  std::ostringstream out;
  Shell shell(out);
  std::istringstream in(script);
  shell.ProcessStream(in, /*interactive=*/false);
  return out.str();
}

TEST(ShellTest, HelpListsCommands) {
  const std::string out = RunSession("help\n");
  EXPECT_NE(out.find("rewrite"), std::string::npos);
  EXPECT_NE(out.find("contained"), std::string::npos);
}

TEST(ShellTest, UnknownCommandReported) {
  const std::string out = RunSession("frobnicate\n");
  EXPECT_NE(out.find("unknown command"), std::string::npos);
}

TEST(ShellTest, CommentsAndBlankLinesIgnored) {
  EXPECT_EQ(RunSession("% a comment\n\n   \n"), "");
}

TEST(ShellTest, QuitStopsProcessing) {
  const std::string out = RunSession("quit\nhelp\n");
  EXPECT_EQ(out.find("commands"), std::string::npos);
}

TEST(ShellTest, AddViewAndQuery) {
  const std::string out = RunSession(
      "view v(T) :- a(T).\n"
      "query q(X) :- a(X), X < 7.\n"
      "show\n");
  EXPECT_NE(out.find("view added"), std::string::npos);
  EXPECT_NE(out.find("query set"), std::string::npos);
  EXPECT_NE(out.find("query: q(X) :- a(X), X < 7"), std::string::npos);
}

TEST(ShellTest, DuplicateViewNameRejected) {
  const std::string out = RunSession(
      "view v(T) :- a(T).\n"
      "view v(T) :- b(T).\n");
  EXPECT_NE(out.find("already exists"), std::string::npos);
}

TEST(ShellTest, UnsafeQueryRejected) {
  const std::string out = RunSession("query q(X) :- a(Y).\n");
  EXPECT_NE(out.find("unsafe"), std::string::npos);
}

TEST(ShellTest, ParseErrorSurfaced) {
  const std::string out = RunSession("view v(T) :- \n");
  EXPECT_NE(out.find("error"), std::string::npos);
}

TEST(ShellTest, RewritePaperExample5) {
  const std::string out = RunSession(
      "view v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z.\n"
      "query q(A) :- r(A), s(A,A), A <= 8.\n"
      "rewrite verify coalesce minimize\n");
  EXPECT_NE(out.find("equivalent rewriting"), std::string::npos);
  EXPECT_NE(out.find("verified=yes"), std::string::npos);
  EXPECT_NE(out.find("q(A) :- v(A,A), A <= 8"), std::string::npos);
}

TEST(ShellTest, RewriteReportsNoRewriting) {
  const std::string out = RunSession(
      "view v(Y,Z) :- r(X), s(Y,Z), Y <= X, X < Z.\n"
      "query q(A) :- r(A), s(A,A), A <= 8.\n"
      "rewrite\n");
  EXPECT_NE(out.find("no equivalent rewriting"), std::string::npos);
}

TEST(ShellTest, RewriteExplainPrintsTableau) {
  const std::string out = RunSession(
      "view v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z.\n"
      "query q(A) :- r(A), s(A,A), A <= 8.\n"
      "rewrite explain\n");
  EXPECT_NE(out.find("two-column tableau"), std::string::npos);
}

TEST(ShellTest, RewriteWithoutQueryErrors) {
  const std::string out = RunSession("rewrite\n");
  EXPECT_NE(out.find("set a query first"), std::string::npos);
}

// With no views the rewriter runs and answers kNoRewriting, as the library
// and --serve-batch do (tests/corpus/regress_no_views.cqac).
TEST(ShellTest, RewriteWithoutViewsRunsTheRewriter) {
  const std::string out = RunSession(
      "query q(X) :- p(X,Y), X < 3.\n"
      "rewrite\n");
  EXPECT_EQ(out.find("error"), std::string::npos) << out;
  EXPECT_NE(out.find("no equivalent rewriting exists"), std::string::npos)
      << out;
}

TEST(ShellTest, ContainedRewrite) {
  const std::string out = RunSession(
      "view v(T) :- a(T), T < 10.\n"
      "query q(X) :- a(X), X < 7.\n"
      "contained-rewrite\n");
  EXPECT_NE(out.find("contained rewritings"), std::string::npos);
  EXPECT_NE(out.find("v(X)"), std::string::npos);
}

TEST(ShellTest, LetAndContainment) {
  const std::string out = RunSession(
      "let tight q(X) :- a(X), X < 3.\n"
      "let loose q(X) :- a(X), X < 5.\n"
      "contained tight loose\n"
      "contained loose tight\n"
      "equivalent tight tight\n");
  EXPECT_NE(out.find("tight = "), std::string::npos);
  // First check: contained; second: not contained; third: equivalent.
  const size_t first = out.find("contained\n");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(out.find("not contained"), std::string::npos);
  EXPECT_NE(out.find("equivalent\n"), std::string::npos);
}

TEST(ShellTest, MinimizeFoldsRedundantSubgoal) {
  // One of the two interchangeable subgoals must fold away.
  const std::string out =
      RunSession("minimize q(X) :- a(X,Y), a(X,Z)\n");
  const bool kept_y = out.find("q(X) :- a(X,Y)\n") != std::string::npos;
  const bool kept_z = out.find("q(X) :- a(X,Z)\n") != std::string::npos;
  EXPECT_TRUE(kept_y || kept_z) << out;
  EXPECT_EQ(out.find("), a("), std::string::npos) << out;
}

TEST(ShellTest, AcyclicCheck) {
  const std::string out = RunSession(
      "acyclic q() :- a(X,Y), b(Y,Z), c(Z,X)\n"
      "acyclic q(X) :- a(X,Y)\n");
  EXPECT_NE(out.find("cyclic"), std::string::npos);
  EXPECT_NE(out.find("acyclic"), std::string::npos);
}

TEST(ShellTest, FactsAndEvaluation) {
  const std::string out = RunSession(
      "fact a(1,2).\n"
      "fact a(2,3).\n"
      "eval q(X,Z) :- a(X,Y), a(Y,Z)\n");
  EXPECT_NE(out.find("fact added"), std::string::npos);
  EXPECT_NE(out.find("{(1,3)}"), std::string::npos);
}

TEST(ShellTest, NonGroundFactRejected) {
  const std::string out = RunSession("fact a(X).\n");
  EXPECT_NE(out.find("error"), std::string::npos);
}

TEST(ShellTest, EvalRewritingRunsOverMaterializedViews) {
  const std::string out = RunSession(
      "view v(T) :- a(T), T < 10.\n"
      "query q(X) :- a(X), X < 7.\n"
      "fact a(5).\n"
      "fact a(8).\n"
      "fact a(12).\n"
      "rewrite coalesce minimize\n"
      "eval-rewriting\n"
      "eval q(X) :- a(X), X < 7\n");
  // The rewriting over the views returns exactly the direct answer {5}.
  const size_t rewriting_answer = out.find("{(5)}");
  ASSERT_NE(rewriting_answer, std::string::npos);
  EXPECT_NE(out.find("{(5)}", rewriting_answer + 1), std::string::npos);
}

TEST(ShellTest, RewriteStatsFlagPrintsPhase1Breakdown) {
  const std::string out = RunSession(
      "view v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z.\n"
      "query q(A) :- r(A), s(A,A), A <= 8.\n"
      "rewrite stats\n");
  EXPECT_NE(out.find("phase-1: "), std::string::npos);
  EXPECT_NE(out.find("databases visited"), std::string::npos);
  EXPECT_NE(out.find("deduped (memo hits)"), std::string::npos);
  EXPECT_NE(out.find("catalog: epoch "), std::string::npos);
  EXPECT_EQ(out.find("plans built"), std::string::npos);  // no plan cache
  // Without the flag, the breakdown is absent.
  const std::string quiet = RunSession(
      "view v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z.\n"
      "query q(A) :- r(A), s(A,A), A <= 8.\n"
      "rewrite\n");
  EXPECT_EQ(quiet.find("phase-1: "), std::string::npos);
}

TEST(ShellTest, RewriteJsonFlagEmitsCounterRecord) {
  const std::string out = RunSession(
      "view v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z.\n"
      "query q(A) :- r(A), s(A,A), A <= 8.\n"
      "rewrite json\n");
  EXPECT_NE(out.find("{\"schema_version\": 9, \"outcome\": \"found\""),
            std::string::npos);
  EXPECT_NE(out.find("\"phase1_memo_hits\": "), std::string::npos);
  EXPECT_NE(out.find("\"phase1_memo_misses\": "), std::string::npos);
  EXPECT_NE(out.find("\"phase1_ns\": "), std::string::npos);
  EXPECT_NE(out.find("\"phase2_ns\": "), std::string::npos);
  EXPECT_EQ(out.find("tier"), std::string::npos);  // removed in v8
}

TEST(ShellTest, ClearResetsState) {
  const std::string out = RunSession(
      "view v(T) :- a(T).\n"
      "clear\n"
      "rewrite\n");
  EXPECT_NE(out.find("state cleared"), std::string::npos);
  EXPECT_NE(out.find("set a query first"), std::string::npos);
}

}  // namespace
}  // namespace cqac

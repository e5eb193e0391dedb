#include "rewriting/equiv_rewriter.h"

#ifndef CQAC_CORPUS_DIR
#error "CQAC_CORPUS_DIR must point at tests/corpus"
#endif

#include <optional>
#include <set>
#include <vector>

#include "containment/cqac_containment.h"
#include "gtest/gtest.h"
#include "parser/parser.h"
#include "rewriting/expansion.h"
#include "testing/corpus.h"

namespace cqac {
namespace {

ViewSet Views(const std::string& program) {
  return ViewSet(Parser::MustParseProgram(program));
}

RewriteResult Rewrite(const std::string& query, const std::string& views,
                      RewriteOptions options = {}) {
  options.verify = true;
  return EquivalentRewriter(Parser::MustParseRule(query), Views(views),
                            options)
      .Run();
}

// --- The paper's worked examples ---

TEST(EquivRewriterTest, PaperExample1RewritingViaV1) {
  const RewriteResult result = Rewrite(
      "q(X,X) :- a(X,X), b(X), X < 7",
      "v1(T,U) :- a(S,T), b(U), T <= S, S <= U.\n"
      "v2(T,U) :- a(S,T), b(U), T <= S, S < U.");
  ASSERT_EQ(result.outcome, RewriteOutcome::kRewritingFound)
      << result.failure_reason;
  EXPECT_TRUE(result.verified);
  // Only v1 can participate: v2 yields no tuples on any kept database.
  for (const ConjunctiveQuery& disjunct : result.rewriting.disjuncts()) {
    for (const Atom& atom : disjunct.body()) {
      EXPECT_EQ(atom.predicate(), "v1");
    }
  }
}

TEST(EquivRewriterTest, PaperExample1NoRewritingWithOnlyV2) {
  const RewriteResult result = Rewrite(
      "q(X,X) :- a(X,X), b(X), X < 7",
      "v2(T,U) :- a(S,T), b(U), T <= S, S < U.");
  EXPECT_EQ(result.outcome, RewriteOutcome::kNoRewriting);
  EXPECT_FALSE(result.failure_reason.empty());
}

TEST(EquivRewriterTest, PaperExample2UnionRequired) {
  const RewriteResult result = Rewrite(
      "q() :- p(X), X >= 0",
      "v1() :- p(X), X = 0.\n"
      "v2() :- p(X), X > 0.");
  ASSERT_EQ(result.outcome, RewriteOutcome::kRewritingFound)
      << result.failure_reason;
  EXPECT_TRUE(result.verified);
  ASSERT_EQ(result.rewriting.size(), 2);
  // One disjunct uses v1 (the X = 0 case), the other v2 (X > 0).
  std::set<std::string> predicates;
  for (const ConjunctiveQuery& d : result.rewriting.disjuncts()) {
    ASSERT_EQ(d.body().size(), 1u);
    predicates.insert(d.body()[0].predicate());
  }
  EXPECT_EQ(predicates, (std::set<std::string>{"v1", "v2"}));
}

TEST(EquivRewriterTest, PaperExample4BothViewsNeeded) {
  const RewriteResult result = Rewrite(
      "q(X,Y) :- a(X,Z1), a(Z1,2), b(2,Z2), b(Z2,Y), Z1 < 5, Z2 > 8",
      "v1(X,Y) :- a(X,Z1), a(Z1,2), b(2,Z2), b(Z2,Y), Z1 < 5.\n"
      "v2(X,Y) :- a(X,Z1), a(Z1,2), b(2,Z2), b(Z2,Y), Z2 > 8.");
  ASSERT_EQ(result.outcome, RewriteOutcome::kRewritingFound)
      << result.failure_reason;
  EXPECT_TRUE(result.verified);
  // Every disjunct must join v1 and v2 (neither view alone suffices).
  for (const ConjunctiveQuery& d : result.rewriting.disjuncts()) {
    std::set<std::string> predicates;
    for (const Atom& atom : d.body()) predicates.insert(atom.predicate());
    EXPECT_EQ(predicates, (std::set<std::string>{"v1", "v2"}))
        << d.ToString();
  }
}

TEST(EquivRewriterTest, PaperExample5And9) {
  const RewriteResult result = Rewrite(
      "q(A) :- r(A), s(A,A), A <= 8",
      "v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z.");
  ASSERT_EQ(result.outcome, RewriteOutcome::kRewritingFound)
      << result.failure_reason;
  EXPECT_TRUE(result.verified);
  // Example 9's answer: the union of A < 8 and A = 8 disjuncts over
  // v(A,A).
  ASSERT_EQ(result.rewriting.size(), 2);
  std::set<std::string> rendered;
  for (const ConjunctiveQuery& d : result.rewriting.disjuncts()) {
    rendered.insert(d.ToString());
  }
  EXPECT_TRUE(rendered.count("q(A) :- v(A,A), A < 8") == 1 ||
              rendered.count("q(A) :- v(A,A), A < 8.") == 1)
      << result.rewriting.ToString();
  EXPECT_EQ(rendered.count("q(A) :- v(A,A), A = 8"), 1u)
      << result.rewriting.ToString();
}

TEST(EquivRewriterTest, PaperExample10NoRewriting) {
  const RewriteResult result = Rewrite(
      "q(A) :- r(A), s(A,A), A <= 8",
      "v(Y,Z) :- r(X), s(Y,Z), Y <= X, X < Z.");
  EXPECT_EQ(result.outcome, RewriteOutcome::kNoRewriting);
  // It fails in Phase 1: the view produces no tuples on D1/D2.
  EXPECT_NE(result.failure_reason.find("no "), std::string::npos);
}

// --- Structural and edge cases ---

TEST(EquivRewriterTest, IdentityViewPlainCQ) {
  const RewriteResult result =
      Rewrite("q(X,Y) :- a(X,Y)", "v(T,U) :- a(T,U).");
  ASSERT_EQ(result.outcome, RewriteOutcome::kRewritingFound)
      << result.failure_reason;
  EXPECT_TRUE(result.verified);
}

TEST(EquivRewriterTest, JoinOfTwoViews) {
  const RewriteResult result = Rewrite(
      "q(X,Z) :- a(X,Y), b(Y,Z), X < 3",
      "v1(T,W) :- a(T,W).\n"
      "v2(W,U) :- b(W,U).");
  ASSERT_EQ(result.outcome, RewriteOutcome::kRewritingFound)
      << result.failure_reason;
  EXPECT_TRUE(result.verified);
}

TEST(EquivRewriterTest, UnsatisfiableQueryGetsEmptyRewriting) {
  const RewriteResult result = Rewrite(
      "q(X) :- a(X), X < 1, X > 2", "v(T) :- a(T).");
  EXPECT_EQ(result.outcome, RewriteOutcome::kRewritingFound);
  EXPECT_TRUE(result.rewriting.empty());
}

TEST(EquivRewriterTest, NoViewsNoRewriting) {
  const RewriteResult result =
      EquivalentRewriter(Parser::MustParseRule("q(X) :- a(X)"), ViewSet())
          .Run();
  EXPECT_EQ(result.outcome, RewriteOutcome::kNoRewriting);
}

TEST(EquivRewriterTest, UncoverableSubgoalNoRewriting) {
  const RewriteResult result =
      Rewrite("q(X) :- a(X), c(X)", "v(T) :- a(T).");
  EXPECT_EQ(result.outcome, RewriteOutcome::kNoRewriting);
}

TEST(EquivRewriterTest, ViewTooTightNoRewriting) {
  // The view only returns values below 3; the query wants everything
  // below 7.
  const RewriteResult result =
      Rewrite("q(X) :- a(X), X < 7", "v(T) :- a(T), T < 3.");
  EXPECT_EQ(result.outcome, RewriteOutcome::kNoRewriting);
}

TEST(EquivRewriterTest, ViewLooserThanQueryWorks) {
  // The view returns everything; the rewriting adds the comparison.
  const RewriteResult result =
      Rewrite("q(X) :- a(X), X < 7", "v(T) :- a(T).");
  ASSERT_EQ(result.outcome, RewriteOutcome::kRewritingFound)
      << result.failure_reason;
  EXPECT_TRUE(result.verified);
}

TEST(EquivRewriterTest, SemiIntervalViewMatchingQueryBound) {
  const RewriteResult result =
      Rewrite("q(X) :- a(X), X < 7", "v(T) :- a(T), T < 7.");
  ASSERT_EQ(result.outcome, RewriteOutcome::kRewritingFound)
      << result.failure_reason;
  EXPECT_TRUE(result.verified);
}

TEST(EquivRewriterTest, BudgetAborts) {
  RewriteOptions options;
  options.max_canonical_databases = 2;
  const RewriteResult result =
      EquivalentRewriter(
          Parser::MustParseRule("q(X,Y) :- a(X,Y), X < 5"),
          Views("v(T,U) :- a(T,U)."), options)
          .Run();
  EXPECT_EQ(result.outcome, RewriteOutcome::kAborted);
}

TEST(EquivRewriterTest, StatsPopulated) {
  const RewriteResult result = Rewrite(
      "q(A) :- r(A), s(A,A), A <= 8",
      "v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z.");
  ASSERT_EQ(result.outcome, RewriteOutcome::kRewritingFound);
  // One variable + one constant: 3 canonical databases, 2 kept.
  EXPECT_EQ(result.stats.canonical_databases, 3);
  EXPECT_EQ(result.stats.kept_canonical_databases, 2);
  EXPECT_GT(result.stats.v0_variants, 0);
  EXPECT_GT(result.stats.mcds_formed, 0);
  EXPECT_GT(result.stats.view_tuples_total, 0);
  EXPECT_EQ(result.stats.phase2_checks, 2);
}

TEST(EquivRewriterTest, MinimizeOutputDropsCoveredDisjuncts) {
  RewriteOptions options;
  options.minimize_output = true;
  const RewriteResult with_min =
      EquivalentRewriter(Parser::MustParseRule("q(X) :- a(X), X < 7"),
                         Views("v(T) :- a(T), T < 7."), options)
          .Run();
  const RewriteResult without_min =
      Rewrite("q(X) :- a(X), X < 7", "v(T) :- a(T), T < 7.");
  ASSERT_EQ(with_min.outcome, RewriteOutcome::kRewritingFound);
  ASSERT_EQ(without_min.outcome, RewriteOutcome::kRewritingFound);
  EXPECT_LE(with_min.rewriting.size(), without_min.rewriting.size());
  EXPECT_TRUE(RewritingIsEquivalent(Parser::MustParseRule(
                                        "q(X) :- a(X), X < 7"),
                                    with_min.rewriting,
                                    Views("v(T) :- a(T), T < 7.")));
}

// Ablations: all pruning modes must agree on the answer.
class PruningModeProperty
    : public ::testing::TestWithParam<RewriteOptions::Pruning> {};

TEST_P(PruningModeProperty, ModesAgreeOnExamples) {
  struct Case {
    const char* query;
    const char* views;
    RewriteOutcome expected;
  };
  const std::vector<Case> cases = {
      {"q(A) :- r(A), s(A,A), A <= 8",
       "v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z.",
       RewriteOutcome::kRewritingFound},
      {"q(A) :- r(A), s(A,A), A <= 8",
       "v(Y,Z) :- r(X), s(Y,Z), Y <= X, X < Z.",
       RewriteOutcome::kNoRewriting},
      {"q() :- p(X), X >= 0", "v1() :- p(X), X = 0.\nv2() :- p(X), X > 0.",
       RewriteOutcome::kRewritingFound},
      {"q(X) :- a(X), X < 7", "v(T) :- a(T), T < 3.",
       RewriteOutcome::kNoRewriting},
  };
  for (const Case& c : cases) {
    RewriteOptions options;
    options.pruning = GetParam();
    options.verify = true;
    const RewriteResult result =
        EquivalentRewriter(Parser::MustParseRule(c.query), Views(c.views),
                           options)
            .Run();
    EXPECT_EQ(result.outcome, c.expected) << c.query;
    if (result.outcome == RewriteOutcome::kRewritingFound) {
      EXPECT_TRUE(result.verified) << c.query;
    }
  }
}

// kNone is excluded: without the paper's step 3.4 the union of
// Pre-Rewritings can fail to contain the query (see the dedicated test
// below); only the pruning-enabled modes carry the full guarantee.
INSTANTIATE_TEST_SUITE_P(SoundModes, PruningModeProperty,
                         ::testing::Values(
                             RewriteOptions::Pruning::kRelaxedForm,
                             RewriteOptions::Pruning::kFrozenMatch));

// Without pruning, Example 2's Pre-Rewritings conjoin v1 and v2 — whose
// expansions demand both an X = 0 and an X > 0 witness — so the union no
// longer contains the query.  The safety net detects this and reports
// kNoRewriting, demonstrating that the pruning step is load-bearing for
// correctness, not just for speed.
TEST(EquivRewriterTest, NoPruningLosesExample2) {
  RewriteOptions options;
  options.pruning = RewriteOptions::Pruning::kNone;
  const RewriteResult result =
      EquivalentRewriter(Parser::MustParseRule("q() :- p(X), X >= 0"),
                         Views("v1() :- p(X), X = 0.\n"
                               "v2() :- p(X), X > 0."),
                         options)
          .Run();
  EXPECT_EQ(result.outcome, RewriteOutcome::kNoRewriting);
  EXPECT_NE(result.failure_reason.find("Lemma 2"), std::string::npos);
}

// Expansion simplification only shrinks what the Phase-2 checks enumerate,
// so turning it off changes no answer: every corpus case gets the same
// outcome, failure reason and rewriting.
TEST(EquivRewriterTest, SimplificationOffKeepsEveryCorpusAnswer) {
  std::string error;
  const std::optional<std::vector<testing::CorpusEntry>> corpus =
      testing::LoadCorpusDir(CQAC_CORPUS_DIR, &error);
  ASSERT_TRUE(corpus.has_value()) << error;
  ASSERT_FALSE(corpus->empty());
  RewriteOptions unsimplified;
  unsimplified.simplify_expansions = false;
  for (const testing::CorpusEntry& entry : *corpus) {
    const RewriteResult on =
        EquivalentRewriter(entry.c.query, entry.c.views).Run();
    const RewriteResult off =
        EquivalentRewriter(entry.c.query, entry.c.views, unsimplified).Run();
    EXPECT_EQ(on.outcome, off.outcome) << entry.name;
    EXPECT_EQ(on.failure_reason, off.failure_reason) << entry.name;
    EXPECT_EQ(on.rewriting.ToString(), off.rewriting.ToString()) << entry.name;
  }
}

}  // namespace
}  // namespace cqac

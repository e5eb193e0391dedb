// ViewCatalog tests: cold/warm/classic byte parity over the persistent
// fuzz corpus (semantic hits and semantic misses), alpha-renamed hits,
// options-keyed entries, fresh-run counters on a semantic miss,
// epoch-bump invalidation through the registry, batch-driver
// parity with the reference rewriter, and a concurrent warm/swap hammer
// for the tsan leg.

#ifndef CQAC_CORPUS_DIR
#error "CQAC_CORPUS_DIR must point at tests/corpus"
#endif

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "catalog/view_catalog.h"
#include "gtest/gtest.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "runtime/batch_driver.h"
#include "testing/corpus.h"
#include "testing/differential.h"

namespace cqac {
namespace {

using testing::CorpusEntry;
using testing::LoadCorpusDir;
using testing::RunSignature;
using testing::SignatureOf;

ConjunctiveQuery ParseRuleOrDie(const std::string& text) {
  std::string error;
  std::optional<ConjunctiveQuery> rule = Parser::ParseRule(text, &error);
  EXPECT_TRUE(rule.has_value()) << text << ": " << error;
  return *std::move(rule);
}

ViewSet OneViewSet() {
  ViewSet views;
  views.Add(ParseRuleOrDie("v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z."));
  return views;
}

ViewSet OtherViewSet() {
  ViewSet views;
  views.Add(ParseRuleOrDie("w(A,B) :- t(A,B), A <= B."));
  return views;
}

std::vector<CorpusEntry> LoadCorpusOrDie() {
  std::string error;
  std::optional<std::vector<CorpusEntry>> corpus =
      LoadCorpusDir(CQAC_CORPUS_DIR, &error);
  EXPECT_TRUE(corpus.has_value()) << error;
  return corpus.value_or(std::vector<CorpusEntry>{});
}

// Cold catalog run, warm catalog run, and the classic rewriter must
// produce identical invariant signatures on every corpus case; the warm
// run must come from the semantic cache whenever the catalog stored the
// cold answer (everything but aborts and the unsatisfiable-query
// shortcut, which bypasses the cache).
TEST(ViewCatalogTest, ColdWarmAndClassicAgreeOnCorpus) {
  int64_t warm_hits = 0;
  for (const CorpusEntry& entry : LoadCorpusOrDie()) {
    const RewriteOptions options;
    const RewriteResult classic =
        EquivalentRewriter(entry.c.query, entry.c.views, options).Run();

    ViewCatalog catalog(entry.c.views);
    const RewriteResult cold = catalog.Rewrite(entry.c.query, options);
    const RewriteResult warm = catalog.Rewrite(entry.c.query, options);

    EXPECT_FALSE(cold.from_semantic_cache) << entry.name;
    EXPECT_EQ(SignatureOf(classic), SignatureOf(cold))
        << entry.name << "\n--- classic\n" << SignatureOf(classic).ToString()
        << "\n--- cold\n" << SignatureOf(cold).ToString();
    EXPECT_EQ(SignatureOf(cold), SignatureOf(warm))
        << entry.name << "\n--- cold\n" << SignatureOf(cold).ToString()
        << "\n--- warm\n" << SignatureOf(warm).ToString();
    EXPECT_EQ(cold.catalog_epoch, catalog.epoch()) << entry.name;
    EXPECT_EQ(warm.catalog_epoch, catalog.epoch()) << entry.name;
    if (warm.from_semantic_cache) ++warm_hits;
  }
  EXPECT_GT(warm_hits, 0);
}

// The database budget is part of the semantic key, so a repeat under a
// budget the run never reaches misses the semantic cache and computes in
// full.  Both runs still match the classic rewriter.
TEST(ViewCatalogTest, SemanticMissStillByteIdentical) {
  for (const CorpusEntry& entry : LoadCorpusOrDie()) {
    const RewriteOptions options;
    RewriteOptions budgeted = options;
    budgeted.max_canonical_databases = int64_t{1} << 40;  // never reached
    const RewriteResult classic =
        EquivalentRewriter(entry.c.query, entry.c.views, options).Run();

    ViewCatalog catalog(entry.c.views);
    const RewriteResult first = catalog.Rewrite(entry.c.query, options);
    const RewriteResult second = catalog.Rewrite(entry.c.query, budgeted);

    EXPECT_FALSE(first.from_semantic_cache) << entry.name;
    EXPECT_FALSE(second.from_semantic_cache) << entry.name;
    EXPECT_EQ(SignatureOf(classic), SignatureOf(first)) << entry.name;
    EXPECT_EQ(SignatureOf(first), SignatureOf(second)) << entry.name;
  }
}

// An alpha-renaming of a cached query is served from the semantic cache,
// with the replayed rewriting renamed to the incoming variable spelling.
TEST(ViewCatalogTest, AlphaRenamedQueryReplaysWithRenamedVariables) {
  const ViewSet views = OneViewSet();
  const ConjunctiveQuery original =
      ParseRuleOrDie("q(A) :- r(A), s(A,A), A <= 8.");
  const ConjunctiveQuery renamed =
      ParseRuleOrDie("q(B) :- r(B), s(B,B), B <= 8.");

  const RewriteOptions options;
  ViewCatalog catalog(views);
  const RewriteResult first = catalog.Rewrite(original, options);
  const RewriteResult second = catalog.Rewrite(renamed, options);
  const RewriteResult fresh =
      EquivalentRewriter(renamed, views, options).Run();

  EXPECT_EQ(SignatureOf(fresh), SignatureOf(second))
      << "--- fresh\n" << SignatureOf(fresh).ToString() << "\n--- cached\n"
      << SignatureOf(second).ToString();
  if (first.outcome == RewriteOutcome::kRewritingFound) {
    EXPECT_TRUE(second.from_semantic_cache);
    EXPECT_EQ(second.rewriting.ToString(), fresh.rewriting.ToString());
  }
}

// A renaming that reverses the order of variable names changes how a
// fresh run orders block representatives and disjuncts, so the cache must
// not replay the cached rendering; the answer stays byte-identical to a
// fresh run.
TEST(ViewCatalogTest, OrderReversingRenamingIsByteIdenticalToFreshRun) {
  ViewSet views;
  views.Add(ParseRuleOrDie("v(X,Y) :- r(X,Y)."));
  const ConjunctiveQuery original = ParseRuleOrDie("q(A,B) :- r(A,B).");
  const ConjunctiveQuery reversed = ParseRuleOrDie("q(B,A) :- r(B,A).");

  const RewriteOptions options;
  ViewCatalog catalog(views);
  const RewriteResult first = catalog.Rewrite(original, options);
  ASSERT_EQ(first.outcome, RewriteOutcome::kRewritingFound);
  const RewriteResult second = catalog.Rewrite(reversed, options);
  const RewriteResult fresh =
      EquivalentRewriter(reversed, views, options).Run();

  EXPECT_EQ(second.rewriting.ToString(), fresh.rewriting.ToString());
  EXPECT_EQ(SignatureOf(fresh), SignatureOf(second));
  EXPECT_FALSE(second.from_semantic_cache);
  EXPECT_EQ(catalog.Stats().semantic_misses, 2);
}

// Result-relevant options key the semantic cache: a run with different
// output shaping must not be served a cached answer computed without it.
TEST(ViewCatalogTest, SemanticEntriesAreKeyedByOptions) {
  const ViewSet views = OneViewSet();
  const ConjunctiveQuery query =
      ParseRuleOrDie("q(A) :- r(A), s(A,A), A <= 8.");

  RewriteOptions plain;
  RewriteOptions verified = plain;
  verified.verify = true;

  ViewCatalog catalog(views);
  const RewriteResult a = catalog.Rewrite(query, plain);
  const RewriteResult b = catalog.Rewrite(query, verified);
  EXPECT_FALSE(b.from_semantic_cache);  // different key, full run

  const RewriteResult fresh_verified =
      EquivalentRewriter(query, views, verified).Run();
  EXPECT_EQ(SignatureOf(fresh_verified), SignatureOf(b));
  EXPECT_EQ(b.verified, fresh_verified.verified);

  // Each keyed entry replays for its own options.
  EXPECT_TRUE(catalog.Rewrite(query, plain).from_semantic_cache);
  EXPECT_TRUE(catalog.Rewrite(query, verified).from_semantic_cache);
  (void)a;
}

// A semantic miss runs exactly what a fresh EquivalentRewriter run does,
// so even a repeat that misses the semantic cache (a different, never
// reached database budget) reports the fresh run's Phase-1 memo split
// and Phase-2 work, not counters shaped by earlier requests.
TEST(ViewCatalogTest, SemanticMissReportsFreshRunCounters) {
  ViewCatalog catalog(OneViewSet());
  const ConjunctiveQuery query =
      ParseRuleOrDie("q(A) :- r(A), s(A,A), A <= 8.");

  const RewriteOptions options;
  RewriteOptions budgeted = options;
  budgeted.max_canonical_databases = int64_t{1} << 40;  // never reached
  const RewriteResult fresh =
      EquivalentRewriter(query, OneViewSet(), options).Run();
  const RewriteResult cold = catalog.Rewrite(query, options);
  const RewriteResult warm = catalog.Rewrite(query, budgeted);

  ASSERT_GT(fresh.stats.phase1_memo_misses, 0);
  EXPECT_FALSE(warm.from_semantic_cache);
  for (const RewriteResult* run : {&cold, &warm}) {
    EXPECT_EQ(run->stats.phase1_memo_hits, fresh.stats.phase1_memo_hits);
    EXPECT_EQ(run->stats.phase1_memo_misses, fresh.stats.phase1_memo_misses);
    EXPECT_EQ(run->stats.phase2_orders, fresh.stats.phase2_orders);
  }
}

// Epochs are strictly increasing across catalog builds, and swapping to
// a new view set through the registry yields a fresh-cached catalog — the
// epoch bump is the invalidation.
TEST(ViewCatalogTest, EpochBumpInvalidatesAcrossSwaps) {
  CatalogRegistry registry;
  const ViewSet views_a = OneViewSet();
  const ViewSet views_b = OtherViewSet();

  const std::shared_ptr<ViewCatalog> a = registry.GetOrBuild(views_a);
  EXPECT_EQ(registry.GetOrBuild(views_a), a);  // same fingerprint, shared
  EXPECT_EQ(registry.Stats().catalogs_built, 1);

  const ConjunctiveQuery query =
      ParseRuleOrDie("q(A) :- r(A), s(A,A), A <= 8.");
  const RewriteOptions options;
  (void)a->Rewrite(query, options);
  (void)a->Rewrite(query, options);
  EXPECT_EQ(a->Stats().semantic_hits, 1);

  const std::shared_ptr<ViewCatalog> b = registry.GetOrBuild(views_b);
  EXPECT_NE(b, a);
  EXPECT_GT(b->epoch(), a->epoch());
  // The swapped-in catalog starts cold: nothing from `a` leaks over.
  EXPECT_EQ(b->Stats().semantic_hits, 0);
  const RewriteResult under_b = b->Rewrite(query, options);
  EXPECT_FALSE(under_b.from_semantic_cache);
  EXPECT_EQ(under_b.catalog_epoch, b->epoch());

  // The old epoch's catalog keeps serving holders of its shared_ptr.
  EXPECT_TRUE(a->Rewrite(query, options).from_semantic_cache);
}

// A capacity-1 registry evicts the LRU catalog; evicted catalogs stay
// usable through outstanding shared_ptrs.
TEST(ViewCatalogTest, RegistryEvictsLeastRecentlyUsed) {
  CatalogRegistry registry(/*capacity=*/1);
  const ViewSet views_a = OneViewSet();
  const ViewSet views_b = OtherViewSet();

  const std::shared_ptr<ViewCatalog> a = registry.GetOrBuild(views_a);
  const std::shared_ptr<ViewCatalog> b = registry.GetOrBuild(views_b);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.Find(views_a), nullptr);
  EXPECT_EQ(registry.Find(views_b), b);

  const ConjunctiveQuery query =
      ParseRuleOrDie("q(A) :- r(A), s(A,A), A <= 8.");
  const RewriteResult still_works = a->Rewrite(query, RewriteOptions{});
  EXPECT_EQ(still_works.catalog_epoch, a->epoch());
}

// Registry counters are lifetime totals: every rewrite is counted once as
// a semantic hit or miss, however often its catalog was evicted, and a
// request served by an evicted catalog still counts.
TEST(ViewCatalogTest, RegistryCountersSurviveEviction) {
  CatalogRegistry registry(/*capacity=*/1);
  const ViewSet view_sets[] = {OneViewSet(), OtherViewSet()};
  const ConjunctiveQuery query =
      ParseRuleOrDie("q(A) :- r(A), s(A,A), A <= 8.");
  constexpr int kRewrites = 6;
  for (int i = 0; i < kRewrites; ++i) {
    (void)registry.GetOrBuild(view_sets[i % 2])->Rewrite(query, {});
  }
  CatalogRegistryStats stats = registry.Stats();
  EXPECT_EQ(stats.catalogs_built, kRewrites);
  EXPECT_EQ(stats.catalogs_resident, 1);
  EXPECT_EQ(stats.semantic_hits + stats.semantic_misses, kRewrites);

  // Evicted while held: the later request is counted too.
  const std::shared_ptr<ViewCatalog> held = registry.GetOrBuild(view_sets[0]);
  (void)registry.GetOrBuild(view_sets[1]);
  (void)held->Rewrite(query, {});
  stats = registry.Stats();
  EXPECT_EQ(stats.semantic_hits + stats.semantic_misses, kRewrites + 1);
}

// The batch driver answers every job through its catalog registry; each
// job block must be byte-identical to the reference rewriter's result
// rendered for the same job.
TEST(ViewCatalogTest, BatchDriverCatalogPathIsByteIdentical) {
  const std::string input =
      "view v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z.\n"
      "query q(A) :- r(A), s(A,A), A <= 8.\n"
      "run\n"
      "view v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z.\n"
      "query q(B) :- r(B), s(B,B), B <= 8.\n"
      "run\n"
      "view w(A,B) :- t(A,B), A <= B.\n"
      "query p(C) :- t(C,C).\n";

  BatchOptions options;
  options.jobs = 2;
  std::istringstream in(input);
  std::ostringstream out;
  const BatchSummary summary = RunBatch(in, out, options);
  EXPECT_EQ(summary.errors, 0);

  std::istringstream reparse(input);
  const std::vector<BatchJob> jobs = ParseJobStream(reparse);
  ASSERT_EQ(jobs.size(), 3u);
  std::string expected;
  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(jobs[i].query.has_value()) << jobs[i].error;
    RewriteOptions per_job;
    per_job.jobs = 1;
    const RewriteResult reference =
        EquivalentRewriter(*jobs[i].query, jobs[i].views, per_job).Run();
    expected += RenderJobResult(i, jobs[i], reference, /*echo=*/false);
  }
  // Everything up to the footer is the per-job result stream.
  const std::string text = out.str();
  EXPECT_EQ(text.substr(0, text.find("batch:")), expected);
}

// tsan target: concurrent warm traffic against a shared catalog while
// other threads build and swap catalogs through the registry.
TEST(ViewCatalogTest, ConcurrentWarmAndSwapHammer) {
  CatalogRegistry registry(/*capacity=*/2);
  const ViewSet views_a = OneViewSet();
  const ViewSet views_b = OtherViewSet();
  const ConjunctiveQuery query_a =
      ParseRuleOrDie("q(A) :- r(A), s(A,A), A <= 8.");
  const ConjunctiveQuery query_b = ParseRuleOrDie("p(C) :- t(C,C).");

  const RewriteOptions options;
  const RunSignature expected_a =
      SignatureOf(EquivalentRewriter(query_a, views_a, options).Run());
  const RunSignature expected_b =
      SignatureOf(EquivalentRewriter(query_b, views_b, options).Run());

  constexpr int kThreads = 4;
  constexpr int kIterations = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const bool pick_a = ((t + i) % 2) == 0;
        const std::shared_ptr<ViewCatalog> catalog =
            registry.GetOrBuild(pick_a ? views_a : views_b);
        const RewriteResult result =
            catalog->Rewrite(pick_a ? query_a : query_b, options);
        if (SignatureOf(result) != (pick_a ? expected_a : expected_b)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace cqac

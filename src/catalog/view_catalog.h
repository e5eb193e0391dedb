#ifndef CQAC_CATALOG_VIEW_CATALOG_H_
#define CQAC_CATALOG_VIEW_CATALOG_H_

// Ahead-of-time view compilation and cross-request caching.
//
// Production traffic is many queries against a mostly-fixed view set, yet
// a one-shot EquivalentRewriter re-derives the per-view machinery — the
// exported V0 variants and the views' constant pool — on every call.  A
// ViewCatalog compiles a ViewSet exactly once and is then shared
// read-only across threads and requests.  It is the one path through
// which the batch driver and the server answer jobs, and it holds two
// things:
//
//  * compiled view data: the exported V0 variants flattened in view
//    order and the deduplicated ascending view-constant pool;
//  * an alpha-normalized semantic result cache: the NormalizedQueryKey
//    of the query plus the result-relevant options maps to the finished
//    rewriting, so a repeated query — even one that merely alpha-renames
//    a cached one with an order-preserving renaming of its variable
//    names — short-circuits the entire algorithm at parse+render cost.
//    Replayed results carry the original run's configuration-invariant
//    counters, so rendered output is byte-identical to a fresh run.
//
// A semantic miss runs exactly what EquivalentRewriter::Run does, with
// the compiled view data passed to PrepareRewriteWork.
//
// Invalidation is by epoch bump: catalogs are immutable, every
// construction draws a fresh strictly increasing epoch from a global
// counter, and "changing the views" means building (or looking up) a new
// catalog — typically through a CatalogRegistry — whose cache starts
// empty.  In-flight requests keep their shared_ptr to the old epoch.
//
// Thread safety: the compiled view data is immutable; the semantic cache
// is internally synchronized.  Rewrite() may be called concurrently from any
// number of threads.

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ast/query.h"
#include "rewriting/equiv_rewriter.h"
#include "rewriting/view_set.h"
#include "runtime/memo_cache.h"

namespace cqac {

class ThreadPool;

/// Point-in-time counters of one catalog.
struct CatalogStats {
  uint64_t epoch = 0;
  int views = 0;
  int64_t v0_variants = 0;
  // Always 0; read by perfbench/src/served.cc:398-401.
  int64_t plans_built = 0;
  // Always 0; read by perfbench/src/served.cc:398-401.
  int64_t plan_hits = 0;
  int64_t semantic_hits = 0;
  int64_t semantic_misses = 0;
  // Always 0; read by perfbench/src/served.cc:398-401.
  MemoCacheStats containment;
};

class ViewCatalog {
 public:
  explicit ViewCatalog(ViewSet views);

  ViewCatalog(const ViewCatalog&) = delete;
  ViewCatalog& operator=(const ViewCatalog&) = delete;

  const ViewSet& views() const { return views_; }

  /// Strictly increasing across every catalog built in this process; the
  /// invalidation token surfaced in stats, server responses, and logs.
  uint64_t epoch() const { return epoch_; }

  /// Serves one request through the catalog.  Semantically identical to
  /// `EquivalentRewriter(query, views(), options).Run()` — outcome,
  /// rewriting, failure reason, and the configuration-invariant stats are
  /// byte-identical — but the compiled view data and the semantic cache
  /// are reused across calls.
  ///
  /// Driver-level options are honored per request: `jobs` selects the
  /// RunPreparedRewrite schedule (`pool`, when non-null and jobs != 1,
  /// supplies the threads), and `cancel` and `max_canonical_databases`
  /// bound the run.  Explain runs bypass the semantic cache so traces
  /// stay complete; aborted or cancelled runs are never cached.
  RewriteResult Rewrite(const ConjunctiveQuery& query,
                        const RewriteOptions& options,
                        ThreadPool* pool = nullptr);

  CatalogStats Stats() const;

 private:
  struct SemanticEntry;

  std::optional<RewriteResult> ProbeSemantic(const std::string& key,
                                             const ConjunctiveQuery& query);
  void StoreSemantic(const std::string& key, const ConjunctiveQuery& query,
                     const RewriteResult& result);

  const ViewSet views_;
  const uint64_t epoch_;

  // The exported V0 variants of all views, flattened in view order, and
  // views_.Constants(): exactly what PrepareRewriteWork would derive.
  std::vector<ConjunctiveQuery> v0_variants_;
  std::vector<Rational> view_constants_;

  mutable std::mutex semantic_mu_;
  std::list<std::pair<std::string, std::shared_ptr<const SemanticEntry>>>
      semantic_;  // front = most recent

  std::atomic<int64_t> semantic_hits_{0};
  std::atomic<int64_t> semantic_misses_{0};
};

/// Canonical fingerprint of a view set: the concatenated rendered views.
/// Two sets with equal fingerprints define the same catalog.
std::string FingerprintViewSet(const ViewSet& views);

/// Aggregate counters of a registry.  The work counters are lifetime
/// totals over every catalog the registry built, evicted ones included,
/// with the increments a request makes after its catalog's eviction.
struct CatalogRegistryStats {
  int64_t catalogs_built = 0;  // lifetime, including evicted ones
  int catalogs_resident = 0;
  uint64_t latest_epoch = 0;  // max epoch among resident catalogs
  int64_t semantic_hits = 0;
  int64_t semantic_misses = 0;
};

/// A small LRU of catalogs keyed by view-set fingerprint, so long-lived
/// drivers (the batch driver, the server) serve every distinct view set
/// they see through one shared catalog.  Thread-safe; builds happen
/// outside the lock and a concurrent duplicate build resolves to the
/// first inserted catalog.
class CatalogRegistry {
 public:
  explicit CatalogRegistry(size_t capacity = 8);

  CatalogRegistry(const CatalogRegistry&) = delete;
  CatalogRegistry& operator=(const CatalogRegistry&) = delete;

  /// The resident catalog for `views`, building (and possibly evicting)
  /// if absent.  The returned pointer stays valid after eviction.
  std::shared_ptr<ViewCatalog> GetOrBuild(const ViewSet& views);

  /// The resident catalog for `views`, or nullptr.
  std::shared_ptr<ViewCatalog> Find(const ViewSet& views) const;

  size_t size() const;
  int64_t catalogs_built() const {
    return built_.load(std::memory_order_relaxed);
  }

  CatalogRegistryStats Stats() const;

 private:
  struct Lifetime;

  const size_t capacity_;
  const std::shared_ptr<Lifetime> lifetime_;
  mutable std::mutex mu_;
  std::list<std::pair<std::string, std::shared_ptr<ViewCatalog>>>
      lru_;  // front = most recent
  std::atomic<int64_t> built_{0};
};

}  // namespace cqac

#endif  // CQAC_CATALOG_VIEW_CATALOG_H_

#include "catalog/view_catalog.h"

#include <algorithm>
#include <set>

#include "ast/substitution.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rewriting/exportable.h"

namespace cqac {

namespace {

/// Semantic result entries kept (LRU).
constexpr size_t kSemanticCapacity = 1 << 12;

/// The options fields a result depends on: everything
/// FinalizeFoundRewriting / ProcessCanonicalDatabase /
/// CheckExpansionContained read through work.options, plus the database
/// budget, because it changes the outcome (kAborted vs a full answer).
/// jobs, cancel and phase1_dedup stay excluded: the result and every
/// cached counter are invariant under them, and a cancelled run is never
/// cached.
std::string SemanticSignature(const RewriteOptions& o) {
  std::string sig;
  sig += std::to_string(static_cast<int>(o.pruning));
  sig += o.simplify_expansions ? 'S' : 's';
  sig += o.verify ? 'V' : 'v';
  sig += o.coalesce_output ? 'C' : 'c';
  sig += o.minimize_output ? 'M' : 'm';
  sig += '#';
  sig += std::to_string(o.max_canonical_databases);
  return sig;
}

/// Distinct variables of `q` in exactly the first-occurrence order
/// NormalizedQueryKey's normalizer assigns ids: head args, then body atom
/// args, then comparison lhs/rhs.  Two queries with equal normalized keys
/// therefore have positionally corresponding variable lists, which is
/// what makes the rename-on-hit below a bijection.
std::vector<std::string> VarsInNormalOrder(const ConjunctiveQuery& q) {
  std::vector<std::string> vars;
  std::set<std::string> seen;
  const auto add = [&](const Term& t) {
    if (t.IsVariable() && seen.insert(t.name()).second) {
      vars.push_back(t.name());
    }
  };
  for (const Term& t : q.head().args()) add(t);
  for (const Atom& a : q.body()) {
    for (const Term& t : a.args()) add(t);
  }
  for (const Comparison& c : q.comparisons()) {
    add(c.lhs());
    add(c.rhs());
  }
  return vars;
}

void RecordCatalogCounter(const char* name) {
  if (!obs::MetricsActive()) return;
  obs::MetricsRegistry::Global().counter(name).Add(1);
}

/// Epochs are process-global so a swapped-in catalog is always observably
/// newer than the one it replaces, even across registries.
std::atomic<uint64_t> g_next_epoch{0};

}  // namespace

/// One finished answer in the semantic cache.  Counters replayed on a hit
/// are the original run's: the configuration-invariant ones
/// (canonical_databases, kept, v0_variants, mcds_formed, mcds_kept_total,
/// view_tuples_total, phase2_checks) are exactly what a fresh run would
/// report; wall times and memo splits are historical.
struct ViewCatalog::SemanticEntry {
  std::string query_text;          // exact rendering of the cached query
  std::vector<std::string> vars;   // VarsInNormalOrder of that query
  std::vector<std::string> extra_vars;  // rewriting vars not in `vars`
  RewriteOutcome outcome = RewriteOutcome::kNoRewriting;
  std::vector<ConjunctiveQuery> disjuncts;
  bool verified = false;
  std::string failure_reason;
  RewriteStats stats;
};

ViewCatalog::ViewCatalog(ViewSet views)
    : views_(std::move(views)),
      epoch_(g_next_epoch.fetch_add(1, std::memory_order_relaxed) + 1) {
  CQAC_TRACE_SPAN("catalog.build");
  for (const ConjunctiveQuery& view : views_.views()) {
    // The exported variants, flattened in view order — the exact
    // per-view derivation PrepareRewriteWork performs, hoisted to build
    // time.
    for (ConjunctiveQuery& variant : BuildV0Variants(view)) {
      v0_variants_.push_back(std::move(variant));
    }
  }
  view_constants_ = views_.Constants();
  RecordCatalogCounter("catalog.builds");
}

std::optional<RewriteResult> ViewCatalog::ProbeSemantic(
    const std::string& key, const ConjunctiveQuery& query) {
  std::shared_ptr<const SemanticEntry> entry;
  {
    std::lock_guard<std::mutex> lock(semantic_mu_);
    for (auto it = semantic_.begin(); it != semantic_.end(); ++it) {
      if (it->first == key) {
        semantic_.splice(semantic_.begin(), semantic_, it);
        entry = it->second;
        break;
      }
    }
  }
  if (entry == nullptr) return std::nullopt;

  RewriteResult result;
  result.outcome = entry->outcome;
  result.verified = entry->verified;
  result.stats = entry->stats;

  if (entry->query_text == query.ToString()) {
    // The very same query: replay verbatim.
    result.rewriting = UnionQuery(entry->disjuncts);
    result.failure_reason = entry->failure_reason;
    return result;
  }

  // Alpha-equal only (same normalized key, different rendering).  Failure
  // reasons embed the cached query's variable and order spellings, so
  // only found rewritings are served across a renaming.
  if (entry->outcome != RewriteOutcome::kRewritingFound) return std::nullopt;

  std::vector<std::string> incoming = VarsInNormalOrder(query);
  if (incoming.size() != entry->vars.size()) return std::nullopt;

  // The rewriting may use variables beyond the query's (MiniCon-fresh
  // "_f" names).  If any collides with an incoming name, renaming could
  // capture it — treat as a miss rather than reason about it.
  for (const std::string& extra : entry->extra_vars) {
    if (std::find(incoming.begin(), incoming.end(), extra) !=
        incoming.end()) {
      return std::nullopt;
    }
  }

  // A fresh run orders atoms, comparisons, order blocks and disjuncts by
  // variable name, so the renamed replay is byte-identical only when the
  // renaming keeps the relative order of every variable of the cached
  // rewriting (the query's, and the fresh ones, which stay put).
  std::vector<std::pair<std::string, std::string>> mapped;  // cached -> new
  mapped.reserve(incoming.size() + entry->extra_vars.size());
  for (size_t i = 0; i < incoming.size(); ++i) {
    mapped.emplace_back(entry->vars[i], incoming[i]);
  }
  for (const std::string& extra : entry->extra_vars) {
    mapped.emplace_back(extra, extra);
  }
  std::sort(mapped.begin(), mapped.end());
  for (size_t i = 1; i < mapped.size(); ++i) {
    if (!(mapped[i - 1].second < mapped[i].second)) return std::nullopt;
  }

  Substitution rename;
  for (size_t i = 0; i < incoming.size(); ++i) {
    if (entry->vars[i] != incoming[i]) {
      rename.Bind(entry->vars[i], Term::Variable(incoming[i]));
    }
  }
  UnionQuery renamed;
  for (const ConjunctiveQuery& d : entry->disjuncts) {
    ConjunctiveQuery r = d.ApplySubstitution(rename);
    // NormalizedQueryKey ignores the head predicate, so the cached head
    // may spell a different query name.
    r.mutable_head() =
        Atom(query.head().predicate(), r.head().args());
    renamed.Add(std::move(r));
  }
  result.rewriting = std::move(renamed);
  return result;
}

void ViewCatalog::StoreSemantic(const std::string& key,
                                const ConjunctiveQuery& query,
                                const RewriteResult& result) {
  auto entry = std::make_shared<SemanticEntry>();
  entry->query_text = query.ToString();
  entry->vars = VarsInNormalOrder(query);
  entry->outcome = result.outcome;
  entry->disjuncts = result.rewriting.disjuncts();
  entry->verified = result.verified;
  entry->failure_reason = result.failure_reason;
  entry->stats = result.stats;
  {
    std::set<std::string> own(entry->vars.begin(), entry->vars.end());
    std::set<std::string> extra;
    for (const ConjunctiveQuery& d : entry->disjuncts) {
      for (const std::string& v : d.AllVariables()) {
        if (own.find(v) == own.end()) extra.insert(v);
      }
    }
    entry->extra_vars.assign(extra.begin(), extra.end());
  }

  std::lock_guard<std::mutex> lock(semantic_mu_);
  for (auto it = semantic_.begin(); it != semantic_.end(); ++it) {
    if (it->first == key) {
      // First store wins; a racing duplicate produced the same answer.
      semantic_.splice(semantic_.begin(), semantic_, it);
      return;
    }
  }
  semantic_.emplace_front(key, std::move(entry));
  while (semantic_.size() > kSemanticCapacity) semantic_.pop_back();
}

RewriteResult ViewCatalog::Rewrite(const ConjunctiveQuery& query,
                                   const RewriteOptions& options,
                                   ThreadPool* pool) {
  CQAC_TRACE_SPAN("catalog.rewrite");

  // Explain runs bypass the semantic cache: traces must be complete and
  // are never replayed.
  if (options.explain) {
    RewriteResult result = EquivalentRewriter(query, views_, options).Run();
    result.catalog_epoch = epoch_;
    return result;
  }

  if (std::optional<RewriteResult> empty =
          RewriteOfUnsatisfiableQuery(query, views_, options)) {
    empty->catalog_epoch = epoch_;
    return *std::move(empty);
  }

  std::string semantic_key = NormalizedQueryKey(query);
  semantic_key += '\x1f';
  semantic_key += SemanticSignature(options);
  if (std::optional<RewriteResult> hit = ProbeSemantic(semantic_key, query)) {
    semantic_hits_.fetch_add(1, std::memory_order_relaxed);
    RecordCatalogCounter("catalog.semantic_hits");
    hit->from_semantic_cache = true;
    hit->catalog_epoch = epoch_;
    return *std::move(hit);
  }
  semantic_misses_.fetch_add(1, std::memory_order_relaxed);
  RecordCatalogCounter("catalog.semantic_misses");

  const RewriteWork work = PrepareRewriteWork(query, views_, options,
                                              &v0_variants_, &view_constants_);
  RewriteResult result = RunPreparedRewrite(work, options, pool);
  result.catalog_epoch = epoch_;

  if (result.outcome != RewriteOutcome::kAborted) {
    StoreSemantic(semantic_key, query, result);
  }
  return result;
}

CatalogStats ViewCatalog::Stats() const {
  CatalogStats stats;
  stats.epoch = epoch_;
  stats.views = views_.size();
  stats.v0_variants = static_cast<int64_t>(v0_variants_.size());
  stats.semantic_hits = semantic_hits_.load(std::memory_order_relaxed);
  stats.semantic_misses = semantic_misses_.load(std::memory_order_relaxed);
  return stats;
}

std::string FingerprintViewSet(const ViewSet& views) {
  std::string fp;
  for (const ConjunctiveQuery& v : views.views()) {
    fp += v.ToString();
    fp += '\n';
  }
  return fp;
}

/// The catalogs a registry built that are still alive — resident, or
/// evicted but held by an in-flight request — and the final counters of
/// those already destroyed.  Each catalog's deleter moves it from `live`
/// into `retired`; the deleters share ownership, so this outlives the
/// registry when a catalog does.
struct CatalogRegistry::Lifetime {
  std::mutex mu;
  std::set<const ViewCatalog*> live;
  CatalogRegistryStats retired;  // work counters only
};

namespace {

void AddWorkCounters(const CatalogStats& stats, CatalogRegistryStats* out) {
  out->semantic_hits += stats.semantic_hits;
  out->semantic_misses += stats.semantic_misses;
}

}  // namespace

CatalogRegistry::CatalogRegistry(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)),
      lifetime_(std::make_shared<Lifetime>()) {}

std::shared_ptr<ViewCatalog> CatalogRegistry::GetOrBuild(
    const ViewSet& views) {
  const std::string fp = FingerprintViewSet(views);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->first == fp) {
        lru_.splice(lru_.begin(), lru_, it);
        return lru_.front().second;
      }
    }
  }
  std::shared_ptr<ViewCatalog> catalog(
      new ViewCatalog(views), [lifetime = lifetime_](ViewCatalog* retiring) {
        {
          std::lock_guard<std::mutex> lock(lifetime->mu);
          lifetime->live.erase(retiring);
          AddWorkCounters(retiring->Stats(), &lifetime->retired);
        }
        delete retiring;
      });
  {
    std::lock_guard<std::mutex> lock(lifetime_->mu);
    lifetime_->live.insert(catalog.get());
  }
  built_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (it->first == fp) {
      // A concurrent build won; use its catalog so caches are shared.
      lru_.splice(lru_.begin(), lru_, it);
      return lru_.front().second;
    }
  }
  lru_.emplace_front(fp, catalog);
  while (lru_.size() > capacity_) lru_.pop_back();
  return catalog;
}

std::shared_ptr<ViewCatalog> CatalogRegistry::Find(
    const ViewSet& views) const {
  const std::string fp = FingerprintViewSet(views);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, catalog] : lru_) {
    if (key == fp) return catalog;
  }
  return nullptr;
}

size_t CatalogRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

CatalogRegistryStats CatalogRegistry::Stats() const {
  CatalogRegistryStats out;
  {
    std::lock_guard<std::mutex> lock(lifetime_->mu);
    out = lifetime_->retired;
    for (const ViewCatalog* catalog : lifetime_->live) {
      AddWorkCounters(catalog->Stats(), &out);
    }
  }
  out.catalogs_built = built_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  out.catalogs_resident = static_cast<int>(lru_.size());
  for (const auto& [key, catalog] : lru_) {
    out.latest_epoch = std::max(out.latest_epoch, catalog->epoch());
  }
  return out;
}

}  // namespace cqac

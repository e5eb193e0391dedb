#include "catalog/view_catalog.h"

#include <algorithm>
#include <set>

#include "constraints/ac_solver.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rewriting/exportable.h"

namespace cqac {

namespace {

/// The options fields a plan is compiled for: everything
/// FinalizeFoundRewriting / ProcessCanonicalDatabase /
/// CheckExpansionContained read through work.options.  Driver-level knobs
/// (jobs, cancel, max_canonical_databases, phase1_dedup) are per-request
/// and excluded.
std::string PlanSignature(const RewriteOptions& o) {
  std::string sig;
  sig += std::to_string(static_cast<int>(o.pruning));
  sig += o.simplify_expansions ? 'S' : 's';
  sig += o.verify ? 'V' : 'v';
  sig += o.coalesce_output ? 'C' : 'c';
  sig += o.minimize_output ? 'M' : 'm';
  // The execution tier is resolved at PrepareRewriteWork time and baked
  // into the plan (the acyclic plan), so plans compiled under
  // different forced tiers must never alias.
  sig += 'T';
  sig += std::to_string(o.force_tier);
  return sig;
}

/// The semantic-result key additionally pins the database budget, because
/// it changes the outcome (kAborted vs a full answer).  jobs and
/// phase1_dedup stay excluded: the result and every cached counter are
/// invariant under them.
std::string SemanticSignature(const RewriteOptions& o) {
  std::string sig = PlanSignature(o);
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

/// A query compiled against the catalog: the prepared work context plus
/// the persistent Phase-1 fingerprint memo whose entries index into it.
/// `work` references the sibling `query`/`options` members and the
/// catalog's ViewSet, so plans never outlive their catalog (the registry
/// hands out shared_ptr<ViewCatalog> to enforce that).
struct ViewCatalog::CatalogPlan {
  ConjunctiveQuery query;
  RewriteOptions options;  // plan-pinned semantics; driver knobs neutral
  RewriteWork work;
  mutable Phase1Memo phase1_memo;  // internally synchronized

  static RewriteOptions Pin(RewriteOptions o) {
    o.jobs = 1;
    o.cancel = nullptr;
    o.max_canonical_databases = -1;
    o.explain = false;  // explain bypasses the catalog entirely
    // force_tier stays: the tier is part of the plan signature and the
    // compiled work must reflect it.
    return o;
  }

  CatalogPlan(const ViewCatalog& catalog, ConjunctiveQuery q,
              const RewriteOptions& o)
      : query(std::move(q)),
        options(Pin(o)),
        work(PrepareRewriteWork(query, catalog.views(), options,
                                &catalog.v0_variants(),
                                &catalog.view_constants())) {}
};

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
  int tier = 0;  // the original run's routing, replayed on a hit
  std::string tier_reason;
};

ViewCatalog::ViewCatalog(ViewSet views, CatalogOptions options)
    : options_(options),
      views_(std::move(views)),
      epoch_(g_next_epoch.fetch_add(1, std::memory_order_relaxed) + 1),
      containment_memo_(options.containment_cache_capacity) {
  CQAC_TRACE_SPAN("catalog.build");
  closures_.reserve(views_.views().size());
  for (const ConjunctiveQuery& view : views_.views()) {
    // Intern every symbol of the view once, ahead of any request.
    interner_.Intern(view.head().predicate());
    for (const Term& t : view.head().args()) {
      if (t.IsVariable()) interner_.Intern(t.name());
    }
    for (const Atom& a : view.body()) {
      interner_.Intern(a.predicate());
      for (const Term& t : a.args()) {
        if (t.IsVariable()) interner_.Intern(t.name());
      }
    }
    for (const Comparison& c : view.comparisons()) {
      if (c.lhs().IsVariable()) interner_.Intern(c.lhs().name());
      if (c.rhs().IsVariable()) interner_.Intern(c.rhs().name());
    }

    // The view's AC closure.
    ViewClosure closure;
    closure.satisfiable = AcSolver::IsSatisfiable(view.comparisons());
    if (closure.satisfiable) {
      if (std::optional<Substitution> forced =
              AcSolver::ForcedEqualities(view.comparisons())) {
        closure.forced_equalities = *std::move(forced);
      }
    }
    closures_.push_back(std::move(closure));

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

std::shared_ptr<const ViewCatalog::CatalogPlan> ViewCatalog::GetOrBuildPlan(
    const ConjunctiveQuery& query, const RewriteOptions& options,
    const std::string& plan_sig) {
  std::string key = plan_sig;
  key += '\x1f';
  key += query.ToString();

  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    for (auto it = plans_.begin(); it != plans_.end(); ++it) {
      if (it->first == key) {
        plans_.splice(plans_.begin(), plans_, it);
        plan_hits_.fetch_add(1, std::memory_order_relaxed);
        RecordCatalogCounter("catalog.plan_hits");
        return plans_.front().second;
      }
    }
  }

  // Build outside the lock (MiniCon bucket formation is the expensive
  // part); on a concurrent duplicate build the first insert wins so both
  // requests share one Phase-1 memo.
  auto plan = std::make_shared<const CatalogPlan>(*this, query, options);
  plans_built_.fetch_add(1, std::memory_order_relaxed);
  RecordCatalogCounter("catalog.plans_built");
  std::lock_guard<std::mutex> lock(plan_mu_);
  for (auto it = plans_.begin(); it != plans_.end(); ++it) {
    if (it->first == key) {
      plans_.splice(plans_.begin(), plans_, it);
      return plans_.front().second;
    }
  }
  plans_.emplace_front(std::move(key), plan);
  while (plans_.size() > options_.plan_capacity) plans_.pop_back();
  return plan;
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
  result.tier = entry->tier;
  result.tier_reason = entry->tier_reason;

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
  entry->tier = result.tier;
  entry->tier_reason = result.tier_reason;
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
  while (semantic_.size() > options_.semantic_capacity) semantic_.pop_back();
}

RewriteResult ViewCatalog::Rewrite(const ConjunctiveQuery& query,
                                   const RewriteOptions& options,
                                   ThreadPool* pool) {
  CQAC_TRACE_SPAN("catalog.rewrite");

  // Explain runs bypass every cache: traces must be complete and are
  // never replayed.  The classic driver still shares this catalog's
  // containment memo (verdicts are pure, so traces are unaffected).
  if (options.explain) {
    RewriteResult result =
        EquivalentRewriter(query, views_, options, &containment_memo_).Run();
    result.catalog_epoch = epoch_;
    return result;
  }

  if (std::optional<RewriteResult> empty =
          RewriteOfUnsatisfiableQuery(query, views_, options)) {
    empty->catalog_epoch = epoch_;
    return *std::move(empty);
  }

  std::string semantic_key;
  if (options_.semantic_cache) {
    semantic_key = NormalizedQueryKey(query);
    semantic_key += '\x1f';
    semantic_key += SemanticSignature(options);
    if (std::optional<RewriteResult> hit =
            ProbeSemantic(semantic_key, query)) {
      semantic_hits_.fetch_add(1, std::memory_order_relaxed);
      RecordCatalogCounter("catalog.semantic_hits");
      hit->from_semantic_cache = true;
      hit->catalog_epoch = epoch_;
      return *std::move(hit);
    }
    semantic_misses_.fetch_add(1, std::memory_order_relaxed);
    RecordCatalogCounter("catalog.semantic_misses");
  }

  std::shared_ptr<const CatalogPlan> plan =
      GetOrBuildPlan(query, options, PlanSignature(options));
  Phase1Memo* phase1 =
      options.phase1_dedup ? &plan->phase1_memo : nullptr;

  RewriteResult result = RunPreparedRewrite(plan->work, options,
                                            &containment_memo_, phase1, pool);
  result.catalog_epoch = epoch_;

  if (options_.semantic_cache && result.outcome != RewriteOutcome::kAborted) {
    StoreSemantic(semantic_key, query, result);
  }
  return result;
}

CatalogStats ViewCatalog::Stats() const {
  CatalogStats stats;
  stats.epoch = epoch_;
  stats.views = views_.size();
  stats.v0_variants = static_cast<int64_t>(v0_variants_.size());
  stats.plans_built = plans_built_.load(std::memory_order_relaxed);
  stats.plan_hits = plan_hits_.load(std::memory_order_relaxed);
  stats.semantic_hits = semantic_hits_.load(std::memory_order_relaxed);
  stats.semantic_misses = semantic_misses_.load(std::memory_order_relaxed);
  stats.containment = containment_memo_.Stats();
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

CatalogRegistry::CatalogRegistry(size_t capacity, CatalogOptions options)
    : capacity_(std::max<size_t>(capacity, 1)), options_(options) {}

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
  auto catalog = std::make_shared<ViewCatalog>(views, options_);
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
  out.catalogs_built = built_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  out.catalogs_resident = static_cast<int>(lru_.size());
  for (const auto& [key, catalog] : lru_) {
    const CatalogStats stats = catalog->Stats();
    out.latest_epoch = std::max(out.latest_epoch, stats.epoch);
    out.plans_built += stats.plans_built;
    out.plan_hits += stats.plan_hits;
    out.semantic_hits += stats.semantic_hits;
    out.semantic_misses += stats.semantic_misses;
    out.containment.hits += stats.containment.hits;
    out.containment.misses += stats.containment.misses;
    out.containment.insertions += stats.containment.insertions;
    out.containment.evictions += stats.containment.evictions;
  }
  return out;
}

}  // namespace cqac

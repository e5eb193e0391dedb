#include "rewriting/equiv_rewriter.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>

#include "constraints/ac_solver.h"
#include "constraints/orders.h"
#include "containment/cqac_containment.h"
#include "engine/canonical.h"
#include "engine/evaluate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rewriting/coalesce.h"
#include "rewriting/expansion.h"
#include "rewriting/exportable.h"
#include "rewriting/minicon.h"
#include "rewriting/view_tuples.h"
#include "runtime/cancellation.h"
#include "runtime/memo_cache.h"
#include "runtime/thread_pool.h"

namespace cqac {

namespace {

/// Steady-clock nanoseconds for the RewriteStats wall-time fields.  Never
/// fed back into the algorithm: timing can shift scheduling but not
/// results.
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The expansion of `disjunct`, simplified when requested.  Unsatisfiable
/// expansions stay as-is (they compute nothing and pass containment
/// trivially).
ConjunctiveQuery ExpandForCheck(const ConjunctiveQuery& disjunct,
                                const ViewSet& views, bool simplify) {
  ConjunctiveQuery expansion = Expand(disjunct, views);
  if (simplify) {
    std::optional<ConjunctiveQuery> simplified = SimplifyQuery(expansion);
    if (simplified.has_value()) return *std::move(simplified);
  }
  return expansion;
}

/// True when `tuple`'s MCD-fresh variables (prefix "_f"; unique to one
/// tuple by construction) can be renamed to make it equal to `other`.
/// Such a tuple adds nothing to the Pre-Rewriting: the fold is a
/// containment mapping in one direction and the identity works in the
/// other, so dropping it preserves equivalence — while genuinely
/// redundant-but-distinct subgoals (the paper's Example 3) are kept.
bool FoldsOntoTuple(const Atom& tuple, const Atom& other) {
  if (&tuple == &other) return false;
  if (tuple.predicate() != other.predicate() ||
      tuple.arity() != other.arity() || tuple == other) {
    return false;
  }
  Substitution binding;
  for (int i = 0; i < tuple.arity(); ++i) {
    const Term& t = tuple.args()[i];
    const Term& o = other.args()[i];
    if (t.IsVariable() && t.name().rfind("_f", 0) == 0) {
      if (binding.IsBound(t.name())) {
        if (binding.Lookup(t.name()) != o) return false;
      } else {
        binding.Bind(t.name(), o);
      }
    } else if (t != o) {
      return false;
    }
  }
  return true;
}

/// The structural key of the current canonical database for Phase-1
/// deduplication: every view's ground tuples rendered unfrozen (block
/// representatives), plus the variable -> block-representative map.  The
/// kept MCD set under every pruning mode, the combination verdict, and the
/// Pre-Rewriting body are pure functions of this key — only the projected
/// order comparisons are not, and those are rebuilt per database.
std::string BuildPhase1Key(const CanonicalFreezer& freezer,
                           const ViewTupleEvaluator& ev) {
  std::string key;
  key.reserve(256);
  for (int v = 0; v < ev.view_count(); ++v) {
    key += '#';
    key += std::to_string(v);
    for (const Tuple& ground : ev.ground(v).tuples()) {
      key += '(';
      for (const Rational& value : ground) {
        key += freezer.UnfreezeValue(value).ToString();
        key += ',';
      }
      key += ')';
    }
  }
  key += '|';
  const std::vector<std::string>& names = freezer.slot_names();
  const std::vector<uint32_t>& blocks = freezer.var_blocks();
  const std::vector<Term>& reps = freezer.block_reps();
  for (size_t s = 0; s < names.size(); ++s) {
    key += names[s];
    key += '=';
    key += reps[blocks[s]].ToString();
    key += ';';
  }
  return key;
}

/// Folds a finished run's counters into the global metrics registry: the
/// rewrite.* counters and the Phase-1 memo split for every run, and the
/// fan-out telemetry only for the pooled schedule.
void RecordRunMetrics(const RewriteStats& stats,
                      const ParallelRewriteReport& report, bool pooled) {
  if (!obs::MetricsActive()) return;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.counter("rewrite.runs").Add(1);
  reg.counter("rewrite.canonical_databases").Add(stats.canonical_databases);
  reg.counter("rewrite.kept_canonical_databases")
      .Add(stats.kept_canonical_databases);
  reg.counter("rewrite.phase2_checks").Add(stats.phase2_checks);
  reg.counter("rewrite.phase2_orders").Add(stats.phase2_orders);
  reg.counter("phase1_memo.hits").Add(stats.phase1_memo_hits);
  reg.counter("phase1_memo.misses").Add(stats.phase1_memo_misses);
  if (pooled) {
    reg.counter("parallel.db_tasks_executed").Add(report.db_tasks_executed);
    reg.counter("parallel.db_tasks_cancelled").Add(report.db_tasks_cancelled);
    reg.counter("parallel.phase2_tasks_executed")
        .Add(report.phase2_tasks_executed);
    reg.counter("parallel.phase2_tasks_cancelled")
        .Add(report.phase2_tasks_cancelled);
    reg.counter("threadpool.tasks_stolen").Add(report.tasks_stolen);
  }
}

}  // namespace

void RewriteStats::Merge(const RewriteStats& other) {
  canonical_databases += other.canonical_databases;
  kept_canonical_databases += other.kept_canonical_databases;
  v0_variants += other.v0_variants;
  mcds_formed += other.mcds_formed;
  mcds_kept_total += other.mcds_kept_total;
  view_tuples_total += other.view_tuples_total;
  phase2_checks += other.phase2_checks;
  phase2_orders += other.phase2_orders;
  phase1_memo_hits += other.phase1_memo_hits;
  phase1_memo_misses += other.phase1_memo_misses;
  enumeration_ns += other.enumeration_ns;
  freeze_ns += other.freeze_ns;
  phase1_ns += other.phase1_ns;
  phase2_ns += other.phase2_ns;
}

RewriteWork PrepareRewriteWork(const ConjunctiveQuery& query,
                               const ViewSet& views,
                               const RewriteOptions& options) {
  return PrepareRewriteWork(query, views, options, nullptr, nullptr);
}

RewriteWork PrepareRewriteWork(
    const ConjunctiveQuery& query, const ViewSet& views,
    const RewriteOptions& options,
    const std::vector<ConjunctiveQuery>* precompiled_v0,
    const std::vector<Rational>* view_constants) {
  CQAC_TRACE_SPAN("prepare.work");
  RewriteWork work(query, views, options);

  // Q0 and the exported variants V0 (Section 3.2 / Examples 5 and 6).
  work.q0 = query.WithoutComparisons();
  if (precompiled_v0 != nullptr) {
    work.v0_variants = *precompiled_v0;
  } else {
    for (const ConjunctiveQuery& view : views.views()) {
      for (ConjunctiveQuery& variant : BuildV0Variants(view)) {
        work.v0_variants.push_back(std::move(variant));
      }
    }
  }

  // MiniCon phase 1 over Q0/V0 (the buckets; formed once).
  {
    CQAC_TRACE_SPAN("prepare.mcd_formation");
    work.mcds = FormMcds(work.q0, work.v0_variants);
  }

  // All constants of the query and the views participate in the orders.
  work.constants = query.Constants();
  {
    std::vector<Rational> derived;
    const std::vector<Rational>& vc =
        view_constants != nullptr ? *view_constants
                                  : (derived = views.Constants());
    for (const Rational& c : vc) {
      if (std::find(work.constants.begin(), work.constants.end(), c) ==
          work.constants.end()) {
        work.constants.push_back(c);
      }
    }
  }

  static std::atomic<uint64_t> next_work_id{1};
  work.work_id = next_work_id.fetch_add(1, std::memory_order_relaxed);

  work.num_subgoals = static_cast<int>(query.body().size());

  // Precompute the atom relations the per-database assembly needs.
  const size_t m = work.mcds.size();
  work.mcd_dup_of.resize(m);
  work.mcd_rank.resize(m);
  work.mcd_folds.assign(m * m, 0);
  std::vector<int> distinct;
  for (size_t i = 0; i < m; ++i) {
    work.mcd_dup_of[i] = static_cast<int>(i);
    for (size_t j = 0; j < i; ++j) {
      if (work.mcds[j].view_tuple == work.mcds[i].view_tuple) {
        work.mcd_dup_of[i] = work.mcd_dup_of[j];
        break;
      }
    }
    if (work.mcd_dup_of[i] == static_cast<int>(i)) {
      distinct.push_back(static_cast<int>(i));
    }
    for (size_t j = 0; j < m; ++j) {
      work.mcd_folds[i * m + j] =
          FoldsOntoTuple(work.mcds[i].view_tuple, work.mcds[j].view_tuple);
    }
  }
  std::sort(distinct.begin(), distinct.end(), [&work](int a, int b) {
    return work.mcds[a].view_tuple < work.mcds[b].view_tuple;
  });
  for (size_t r = 0; r < distinct.size(); ++r) {
    work.mcd_rank[distinct[r]] = static_cast<int>(r);
  }
  for (size_t i = 0; i < m; ++i) {
    work.mcd_rank[i] = work.mcd_rank[work.mcd_dup_of[i]];
  }
  return work;
}

/// Phase-1 steps 2-3.7 proper; the public ProcessCanonicalDatabase wraps
/// it with the per-database span and wall-time accounting (kept outside so
/// the duration lands in the returned stats after the body finishes).
static DatabaseOutcome ProcessCanonicalDatabaseImpl(const RewriteWork& work,
                                                    const TotalOrder& order,
                                                    Phase1Memo* memo) {
  const RewriteOptions& options = work.options;
  DatabaseOutcome out;
  if (options.explain) out.trace.order = order.ToString();

  // Keep only databases on which the query computes its frozen head
  // (general evaluation: the identity freezing need not be the witnessing
  // embedding).  The keep-test runs on a delta freeze with the shared
  // prepared plan — consecutive orders differ in few blocks, so the
  // freezer patches only the moved rows, and the view evaluator re-derives
  // only views whose relations changed.  The caches are per-thread
  // (ProcessCanonicalDatabase runs on worker threads) and are recompiled
  // when a different run's work arrives.
  struct Phase1Cache {
    uint64_t work_id = 0;
    std::optional<CanonicalFreezer> freezer;
    std::optional<ViewTupleEvaluator> evaluator;
    std::optional<FrozenTupleMatcher> matcher;
    PreparedQuery::Scratch scratch;
  };
  static thread_local Phase1Cache cache;
  if (cache.work_id != work.work_id) {
    cache.freezer.emplace(work.query);
    cache.evaluator.emplace(work.views);
    std::vector<Atom> mcd_tuples;
    mcd_tuples.reserve(work.mcds.size());
    for (const Mcd& mcd : work.mcds) mcd_tuples.push_back(mcd.view_tuple);
    cache.matcher.emplace(std::move(mcd_tuples), *cache.freezer);
    cache.work_id = work.work_id;
  }
  bool computes_head;
  {
    CQAC_TRACE_SPAN("phase1.freeze");
    const int64_t freeze_t0 = NowNs();
    const FlatInstance& inst = cache.freezer->Freeze(order);
    computes_head = work.prepared_query.Run(
        inst, &cache.freezer->frozen_head(), nullptr, &cache.scratch);
    out.stats.freeze_ns += NowNs() - freeze_t0;
  }
  if (!computes_head) {
    out.status = DatabaseOutcome::Status::kSkipped;
    if (options.explain) out.trace.status = "skipped";
    return out;
  }
  out.trace.computes_head = true;
  ++out.stats.kept_canonical_databases;

  // Step 3.1-3.2: view tuples T_i(V), from the epoch-gated evaluator.
  {
    CQAC_TRACE_SPAN("phase1.view_tuples");
    cache.evaluator->Refresh(*cache.freezer);
  }
  out.stats.view_tuples_total += cache.evaluator->total();
  if (options.explain) out.trace.view_tuples = cache.evaluator->total();
  if (cache.evaluator->total() == 0) {
    out.status = DatabaseOutcome::Status::kFailed;
    out.failure_reason =
        "no view produces any tuple on canonical database [" +
        order.ToString() + "]";
    if (options.explain) out.trace.status = "no-view-tuples";
    return out;
  }

  // Databases with equal structural keys share one Phase-1 conclusion:
  // on a (verified) fingerprint hit the kept count, combination verdict,
  // and Pre-Rewriting body are replayed, and only the order-dependent
  // projected comparisons are rebuilt.  Explain runs bypass the memo so
  // every database's trace stays complete.
  if (options.explain) memo = nullptr;
  std::string memo_key;
  Phase1Fingerprint memo_fp;
  if (memo != nullptr) {
    Phase1Entry entry;
    bool hit;
    {
      CQAC_TRACE_SPAN("phase1.memo_probe");
      memo_key = BuildPhase1Key(*cache.freezer, *cache.evaluator);
      memo_fp = FingerprintPhase1Key(memo_key);
      hit = memo->Get(memo_fp, memo_key, &entry);
    }
    if (hit) {
      ++out.stats.phase1_memo_hits;
      out.stats.mcds_kept_total += entry.mcds_kept;
      if (!entry.combination_exists) {
        out.status = DatabaseOutcome::Status::kFailed;
        out.failure_reason =
            "no MiniCon combination covers the query on canonical "
            "database [" +
            order.ToString() + "]";
        return out;
      }
      std::vector<Atom> body;
      body.reserve(entry.body_mcds.size());
      for (const int i : entry.body_mcds) {
        body.push_back(work.mcds[i].view_tuple);
      }
      out.pre_rewriting =
          ConjunctiveQuery(work.query.head(), std::move(body),
                           order.ProjectedComparisons(entry.body_vars));
      out.status = DatabaseOutcome::Status::kKept;
      return out;
    }
    ++out.stats.phase1_memo_misses;
  }

  // Step 3.4: prune bucket entries against the database's tuples.  Kept
  // MCDs are tracked by index into work.mcds; nothing is copied until the
  // surviving tuples enter the Pre-Rewriting body.
  const size_t num_mcds = work.mcds.size();
  std::vector<int> kept;
  {
    CQAC_TRACE_SPAN("phase1.bucket_prune");
    switch (options.pruning) {
      case RewriteOptions::Pruning::kNone:
        kept.resize(num_mcds);
        for (size_t m = 0; m < num_mcds; ++m) kept[m] = static_cast<int>(m);
        break;
      case RewriteOptions::Pruning::kRelaxedForm: {
        // Definition 2 works on unfrozen tuples; build them for this
        // database (the frozen-match default never needs them).
        std::map<std::string, std::vector<Atom>> unfrozen;
        for (int v = 0; v < cache.evaluator->view_count(); ++v) {
          std::vector<Atom>& atoms = unfrozen[cache.evaluator->view_name(v)];
          for (const Tuple& ground : cache.evaluator->ground(v).tuples()) {
            std::vector<Term> args;
            args.reserve(ground.size());
            for (const Rational& value : ground) {
              args.push_back(cache.freezer->UnfreezeValue(value));
            }
            atoms.push_back(Atom(cache.evaluator->view_name(v),
                                 std::move(args)));
          }
        }
        for (size_t m = 0; m < num_mcds; ++m) {
          const auto it = unfrozen.find(work.mcds[m].view_tuple.predicate());
          if (it == unfrozen.end()) continue;
          for (const Atom& t : it->second) {
            if (IsMoreRelaxedForm(work.mcds[m].view_tuple, t)) {
              kept.push_back(static_cast<int>(m));
              break;
            }
          }
        }
        break;
      }
      case RewriteOptions::Pruning::kFrozenMatch: {
        cache.matcher->BindDatabase(*cache.evaluator);
        for (size_t m = 0; m < num_mcds; ++m) {
          if (cache.matcher->Matches(m)) kept.push_back(static_cast<int>(m));
        }
        break;
      }
    }
  }
  out.stats.mcds_kept_total += static_cast<int64_t>(kept.size());
  if (options.explain) {
    out.trace.kept_mcds = static_cast<int64_t>(kept.size());
  }

  // Step 3.5: MiniCon phase 2 as an existence check.
  if (!McdCombinationExists(work.mcds, kept, work.num_subgoals)) {
    if (memo != nullptr) {
      memo->Put(memo_fp,
                Phase1Entry{std::move(memo_key), false,
                            static_cast<int64_t>(kept.size()),
                            {},
                            {}});
    }
    out.status = DatabaseOutcome::Status::kFailed;
    out.failure_reason =
        "no MiniCon combination covers the query on canonical "
        "database [" +
        order.ToString() + "]";
    if (options.explain) out.trace.status = "no-mcr";
    return out;
  }
  if (options.explain) out.trace.combination_exists = true;

  // Steps 3.6-3.7 and Phase 2 task (a): the Pre-Rewriting holds all
  // surviving view tuples plus the database's order constraints projected
  // onto the variables it uses.  Dedup, fold-drop, and sort run on the
  // precomputed per-run relations (work.mcd_dup_of / mcd_folds /
  // mcd_rank); the result is identical to deduplicating with std::find,
  // dropping with FoldsOntoTuple, and sorting atoms directly.
  std::vector<int> body_idx;
  {
    std::vector<char> seen_rep(num_mcds, 0);
    for (const int k : kept) {
      const int rep = work.mcd_dup_of[k];
      if (!seen_rep[rep]) {
        seen_rep[rep] = 1;
        body_idx.push_back(rep);
      }
    }
  }
  // Drop tuples whose fresh variables fold onto another kept tuple.
  {
    std::vector<char> dropped(body_idx.size(), 0);
    for (size_t i = 0; i < body_idx.size(); ++i) {
      for (size_t j = 0; j < body_idx.size(); ++j) {
        if (i == j || dropped[j]) continue;
        if (work.mcd_folds[body_idx[i] * num_mcds + body_idx[j]]) {
          dropped[i] = 1;
          break;
        }
      }
    }
    std::vector<int> reduced;
    for (size_t i = 0; i < body_idx.size(); ++i) {
      if (!dropped[i]) reduced.push_back(body_idx[i]);
    }
    body_idx = std::move(reduced);
  }
  std::sort(body_idx.begin(), body_idx.end(), [&work](int a, int b) {
    return work.mcd_rank[a] < work.mcd_rank[b];
  });
  std::vector<Atom> body;
  body.reserve(body_idx.size());
  for (const int i : body_idx) body.push_back(work.mcds[i].view_tuple);
  std::vector<std::string> body_vars;
  {
    std::set<std::string> seen;
    for (const Atom& a : body) {
      for (const Term& t : a.args()) {
        if (t.IsVariable() && seen.insert(t.name()).second) {
          body_vars.push_back(t.name());
        }
      }
    }
  }
  if (memo != nullptr) {
    memo->Put(memo_fp,
              Phase1Entry{std::move(memo_key), true,
                          static_cast<int64_t>(kept.size()), body_idx,
                          body_vars});
  }
  ConjunctiveQuery pre(work.query.head(), std::move(body),
                       order.ProjectedComparisons(body_vars));
  if (options.explain) {
    out.trace.pre_rewriting = pre.ToString();
    out.trace.status = "ok";
  }
  out.pre_rewriting = std::move(pre);
  out.status = DatabaseOutcome::Status::kKept;
  return out;
}

DatabaseOutcome ProcessCanonicalDatabase(const RewriteWork& work,
                                         const TotalOrder& order,
                                         Phase1Memo* memo) {
  CQAC_TRACE_SPAN("phase1.database");
  const int64_t t0 = NowNs();
  DatabaseOutcome out = ProcessCanonicalDatabaseImpl(work, order, memo);
  const int64_t dur = NowNs() - t0;
  out.stats.phase1_ns += dur;
  if (obs::MetricsActive()) {
    // The registry never invalidates references, so the lookup happens
    // once per process, not once per canonical database.
    static obs::Histogram& wall =
        obs::MetricsRegistry::Global().histogram("phase1.db_wall_ns");
    wall.Observe(dur);
  }
  return out;
}

Phase2Outcome CheckExpansionContained(const RewriteWork& work,
                                      const ConjunctiveQuery& pre) {
  CQAC_TRACE_SPAN("phase2.check");
  const int64_t t0 = NowNs();
  ConjunctiveQuery expansion;
  {
    CQAC_TRACE_SPAN("phase2.expand");
    expansion =
        ExpandForCheck(pre, work.views, work.options.simplify_expansions);
  }
  ContainmentStats cstats;
  Phase2Outcome out;
  out.contained = CqacContainedCanonical(expansion, work.query, &cstats);
  out.orders_enumerated = cstats.orders_enumerated;
  out.wall_ns = NowNs() - t0;
  if (obs::MetricsActive()) {
    static obs::Histogram& wall =
        obs::MetricsRegistry::Global().histogram("phase2.check_wall_ns");
    wall.Observe(out.wall_ns);
  }
  return out;
}

void FinalizeFoundRewriting(const RewriteWork& work,
                            std::vector<ConjunctiveQuery> pre_rewritings,
                            RewriteResult* result) {
  CQAC_TRACE_SPAN("finalize");
  const RewriteOptions& options = work.options;

  UnionQuery rewriting(std::move(pre_rewritings));
  if (options.coalesce_output) rewriting = CoalesceUnion(rewriting);

  // The default frozen-match pruning guarantees Lemma 2 (every
  // Pre-Rewriting computes the query's head on its canonical database, so
  // the union contains the query).  The ablation modes do not: without
  // step 3.4 the Pre-Rewritings can conjoin mutually exclusive view
  // tuples (e.g. the paper's Example 2 with no pruning joins v1 and v2,
  // whose expansion demands both X = 0 and X > 0 witnesses).  Check the
  // missing direction explicitly for those modes.
  if (options.pruning != RewriteOptions::Pruning::kFrozenMatch) {
    UnionQuery expanded;
    for (const ConjunctiveQuery& d : rewriting.disjuncts()) {
      expanded.Add(
          ExpandForCheck(d, work.views, options.simplify_expansions));
    }
    if (!CqacContainedInUnion(work.query, expanded)) {
      result->outcome = RewriteOutcome::kNoRewriting;
      result->failure_reason =
          "union of Pre-Rewritings does not contain the query (weakened "
          "pruning mode lost Lemma 2)";
      return;
    }
  }

  // Optional output minimization: drop disjuncts covered by the others.
  if (options.minimize_output && rewriting.size() > 1) {
    std::vector<ConjunctiveQuery> disjuncts = rewriting.disjuncts();
    for (size_t i = 0; i < disjuncts.size() && disjuncts.size() > 1;) {
      UnionQuery others_expanded;
      for (size_t j = 0; j < disjuncts.size(); ++j) {
        if (j != i) {
          others_expanded.Add(ExpandForCheck(disjuncts[j], work.views,
                                             options.simplify_expansions));
        }
      }
      const ConjunctiveQuery expansion_i = ExpandForCheck(
          disjuncts[i], work.views, options.simplify_expansions);
      if (CqacContainedInUnion(expansion_i, others_expanded)) {
        disjuncts.erase(disjuncts.begin() + i);
      } else {
        ++i;
      }
    }
    rewriting = UnionQuery(std::move(disjuncts));
  }

  result->rewriting = std::move(rewriting);
  result->outcome = RewriteOutcome::kRewritingFound;

  if (options.verify) {
    result->verified =
        RewritingIsEquivalent(work.query, result->rewriting, work.views);
  }
}

std::optional<RewriteResult> RewriteOfUnsatisfiableQuery(
    const ConjunctiveQuery& query, const ViewSet& views,
    const RewriteOptions& options) {
  if (AcSolver::IsSatisfiable(query.comparisons())) return std::nullopt;
  RewriteResult result;
  result.outcome = RewriteOutcome::kRewritingFound;
  if (options.verify) {
    result.verified = RewritingIsEquivalent(query, result.rewriting, views);
  }
  return result;
}

RewriteResult RunPreparedRewrite(const RewriteWork& work,
                                 const RewriteOptions& driver,
                                 ThreadPool* pool,
                                 ParallelRewriteReport* report) {
  ParallelRewriteReport local_report;
  if (report == nullptr) report = &local_report;
  *report = ParallelRewriteReport();
  RewriteResult result;
  result.stats.v0_variants = static_cast<int64_t>(work.v0_variants.size());
  result.stats.mcds_formed = static_cast<int64_t>(work.mcds.size());
  const bool explain = work.options.explain;
  const CancellationToken* const cancel = driver.cancel;
  const auto cancelled = [cancel] {
    return cancel != nullptr && cancel->cancelled();
  };

  // The schedule: inline on this thread (pool stays null), or a fan-out
  // over the caller's pool or one owned by this run.
  std::unique_ptr<ThreadPool> owned_pool;
  if (driver.jobs == 1) {
    pool = nullptr;
  } else if (pool == nullptr) {
    owned_pool =
        std::make_unique<ThreadPool>(ThreadPool::ResolveJobs(driver.jobs));
    pool = owned_pool.get();
  }
  report->jobs = pool != nullptr ? pool->num_threads() : 1;
  const int64_t stolen_before = pool != nullptr ? pool->tasks_stolen() : 0;

  // The Phase-1 memo lives and dies with this run (its entries index
  // into `work`).  Shared by every worker (sharded; first writer wins):
  // which worker takes the miss for a structural key races, so the
  // hit/miss *split* can vary with the schedule, but every replayed
  // conclusion is verified against the full key, so outcomes,
  // Pre-Rewritings, and the hit+miss total cannot.
  std::optional<Phase1Memo> local_memo;
  Phase1Memo* phase1_memo = nullptr;
  if (driver.phase1_dedup && !explain) {
    local_memo.emplace();
    phase1_memo = &*local_memo;
  }

  // --- Phase 1: one Pre-Rewriting per kept canonical database ---

  std::vector<ConjunctiveQuery> pre_rewritings;
  std::set<std::string> pre_rewriting_keys;
  bool failed = false;
  bool budget_exceeded = false;

  // The in-order merge of one database's outcome: stats, trace, the first
  // failure, and Pre-Rewriting dedup.  Both schedules call it in
  // enumeration order and stop at the first failure, so the result is the
  // same prefix whichever schedule produced the outcomes.
  const auto merge_database = [&](DatabaseOutcome& out) {
    ++result.stats.canonical_databases;
    result.stats.Merge(out.stats);
    if (explain) result.trace.databases.push_back(std::move(out.trace));
    if (out.status == DatabaseOutcome::Status::kFailed) {
      failed = true;
      result.failure_reason = std::move(out.failure_reason);
    } else if (out.status == DatabaseOutcome::Status::kKept &&
               pre_rewriting_keys.insert(out.pre_rewriting->ToString())
                   .second) {
      pre_rewritings.push_back(*std::move(out.pre_rewriting));
    }
  };

  // The pooled schedule's state.  The number of total orders is factorial
  // in |variables| + |constants|, so the worklist is never materialized:
  // the enumeration submits index i into ring slot i % window and merges
  // completed slots in enumeration order to free them, keeping memory O(1)
  // in the number of databases.  `done` is guarded by `mu`, which also
  // publishes a task's `outcome` write to the merging thread.
  struct DbSlot {
    TotalOrder order;
    bool done = false;
    DatabaseOutcome outcome;
  };
  const int64_t window =
      pool != nullptr
          ? std::max<int64_t>(static_cast<int64_t>(pool->num_threads()) * 8,
                              64)
          : 0;
  std::vector<DbSlot> db_slots(static_cast<size_t>(window));
  std::mutex mu;
  std::condition_variable cv;
  PrefixCancel db_cancel;
  std::atomic<int64_t> db_executed{0};
  // Steady-clock time of the first observed failure, or 0; lets the drain
  // report how long cancellation took to quiesce the pool.
  std::atomic<int64_t> first_fail_ns{0};
  const auto note_failure = [&first_fail_ns] {
    if (!obs::MetricsActive()) return;
    int64_t expected = 0;
    first_fail_ns.compare_exchange_strong(expected, NowNs(),
                                          std::memory_order_relaxed);
  };
  int64_t merged = 0;  // pooled: slots consumed, in enumeration order

  // Waits for the slot at enumeration index `merged` and frees it,
  // merging its outcome unless the run already failed: after a failure
  // the remaining in-flight slots are only drained, exactly as the inline
  // schedule never reaches them.
  const auto consume_next = [&] {
    DbSlot& slot = db_slots[static_cast<size_t>(merged % window)];
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return slot.done; });
      slot.done = false;
    }
    ++merged;
    if (!failed) merge_database(slot.outcome);
    slot.outcome = DatabaseOutcome();
  };

  const int64_t enumerate_t0 = NowNs();
  {
    CQAC_TRACE_SPAN("phase1.enumerate");
    int64_t& submitted = report->db_tasks_total;
    ForEachTotalOrder(
        work.query.AllVariables(), work.constants,
        [&](const TotalOrder& order) {
          if (cancelled()) return false;
          // The budget aborts upon enumerating database max+1, after the
          // first max were fully processed.
          if (driver.max_canonical_databases >= 0 &&
              submitted >= driver.max_canonical_databases) {
            budget_exceeded = true;
            return false;
          }
          if (pool == nullptr) {
            ++submitted;
            DatabaseOutcome out =
                ProcessCanonicalDatabase(work, order, phase1_memo);
            ++report->db_tasks_executed;
            merge_database(out);
            return !failed;
          }
          // Reusing ring slot i % window requires its previous occupant
          // (index i - window) to have been merged first.
          while (submitted - merged >= window) {
            consume_next();
            if (failed) return false;
          }
          const int64_t i = submitted++;
          db_slots[static_cast<size_t>(i % window)].order = order;
          pool->Submit([&, i] {
            DbSlot& slot = db_slots[static_cast<size_t>(i % window)];
            // The first failing D_i cancels everything past it; work at or
            // below the cutoff must still run so the merge sees the same
            // prefix as the inline schedule (see PrefixCancel).
            if (db_cancel.ShouldRun(i) && !cancelled()) {
              slot.outcome =
                  ProcessCanonicalDatabase(work, slot.order, phase1_memo);
              db_executed.fetch_add(1, std::memory_order_relaxed);
              if (slot.outcome.status == DatabaseOutcome::Status::kFailed) {
                db_cancel.FailAt(i);
                note_failure();
              }
            }
            // Notify while holding the lock: the merging thread owns cv's
            // stack frame and may destroy it the moment it observes
            // `done`, which the lock delays until the notify has returned.
            std::lock_guard<std::mutex> lock(mu);
            slot.done = true;
            cv.notify_all();
          });
          return true;
        });
    // Every submitted task must finish before its captured state dies.
    if (pool != nullptr) {
      while (merged < report->db_tasks_total) consume_next();
      report->db_tasks_executed = db_executed.load();
    }
  }
  result.stats.enumeration_ns = NowNs() - enumerate_t0;
  report->db_tasks_cancelled =
      report->db_tasks_total - report->db_tasks_executed;

  // The verdict cascade.  Cancellation comes first: a task that observed
  // the token mid-flight skipped its database, so any conclusion drawn
  // from the merged outcomes would rest on partial work.  The token is
  // monotonic, so re-checking here also catches a cancel that landed
  // after the last enumeration callback.  A failure merged from the first
  // max databases beats the budget abort, which the pooled schedule can
  // only tell apart after its tail is merged.
  const auto finish = [&](RewriteOutcome outcome, std::string reason) {
    result.outcome = outcome;
    if (!reason.empty()) result.failure_reason = std::move(reason);
    if (pool != nullptr) {
      report->tasks_stolen = pool->tasks_stolen() - stolen_before;
      if (obs::MetricsActive()) {
        obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
        reg.gauge("threadpool.max_queue_depth").Max(pool->max_queue_depth());
        const int64_t fail_ns = first_fail_ns.load(std::memory_order_relaxed);
        if (fail_ns != 0) {
          reg.histogram("parallel.cancel_drain_ns").Observe(NowNs() - fail_ns);
        }
      }
    }
    RecordRunMetrics(result.stats, *report, pool != nullptr);
    return std::move(result);
  };
  if (cancelled()) {
    return finish(RewriteOutcome::kAborted, kCancelledReason);
  }
  if (failed) return finish(RewriteOutcome::kNoRewriting, "");
  if (budget_exceeded) {
    // The abort-triggering database is counted.
    ++result.stats.canonical_databases;
    return finish(RewriteOutcome::kAborted,
                  "canonical database budget exceeded");
  }
  if (pre_rewritings.empty()) {
    // The query computes its head on no canonical database: impossible for
    // a satisfiable safe query, but guard anyway.
    return finish(RewriteOutcome::kNoRewriting,
                  "query computes its head on no canonical database");
  }

  // --- Phase 2 task (b): every expansion must be contained in the query ---

  const int64_t num_pres = static_cast<int64_t>(pre_rewritings.size());
  report->phase2_tasks_total = num_pres;
  std::vector<Phase2Outcome> checks(static_cast<size_t>(num_pres));
  if (pool == nullptr) {
    for (int64_t i = 0; i < num_pres && !cancelled(); ++i) {
      checks[i] = CheckExpansionContained(work, pre_rewritings[i]);
      ++report->phase2_tasks_executed;
      if (!checks[i].contained) break;
    }
  } else {
    PrefixCancel p2_cancel;
    std::atomic<int64_t> p2_executed{0};
    int64_t p2_done = 0;
    for (int64_t i = 0; i < num_pres; ++i) {
      pool->Submit([&, i] {
        if (p2_cancel.ShouldRun(i) && !cancelled()) {
          checks[i] = CheckExpansionContained(work, pre_rewritings[i]);
          p2_executed.fetch_add(1, std::memory_order_relaxed);
          if (!checks[i].contained) {
            p2_cancel.FailAt(i);
            note_failure();
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        ++p2_done;
        cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return p2_done == num_pres; });
    report->phase2_tasks_executed = p2_executed.load();
  }
  report->phase2_tasks_cancelled = num_pres - report->phase2_tasks_executed;

  // Same ordering argument as after Phase 1: a token observed by any check
  // means some slots hold no verdict.
  if (cancelled()) {
    return finish(RewriteOutcome::kAborted, kCancelledReason);
  }

  // The in-order Phase-2 merge, up to and including the first expansion
  // that is not contained (every check before it ran on both schedules).
  std::map<std::string, bool> phase2_verdicts;
  bool phase2_failed = false;
  for (int64_t i = 0; i < num_pres && !phase2_failed; ++i) {
    const Phase2Outcome& check = checks[i];
    ++result.stats.phase2_checks;
    result.stats.phase2_orders += check.orders_enumerated;
    result.stats.phase2_ns += check.wall_ns;
    if (explain) {
      phase2_verdicts[pre_rewritings[i].ToString()] = check.contained;
    }
    if (!check.contained) {
      result.failure_reason = "expansion not contained in the query: " +
                              pre_rewritings[i].ToString();
      phase2_failed = true;
    }
  }
  // The two-column tableau.
  if (explain) {
    for (CanonicalDatabaseTrace& db : result.trace.databases) {
      if (db.status != "ok") continue;
      auto it = phase2_verdicts.find(db.pre_rewriting);
      if (it == phase2_verdicts.end()) continue;  // Unchecked after failure.
      db.expansion_contained = it->second;
      if (it->second) {
        result.trace.left_column.push_back(db.order);
      } else {
        db.status = "phase2-failed";
        result.trace.right_column.push_back(db.order);
      }
    }
  }
  if (phase2_failed) return finish(RewriteOutcome::kNoRewriting, "");

  FinalizeFoundRewriting(work, std::move(pre_rewritings), &result);
  return finish(result.outcome, "");
}

RewriteResult EquivalentRewriter::Run() {
  if (std::optional<RewriteResult> empty =
          RewriteOfUnsatisfiableQuery(query_, views_, options_)) {
    return *std::move(empty);
  }
  const RewriteWork work = PrepareRewriteWork(query_, views_, options_);
  return RunPreparedRewrite(work, options_);
}

RewriteResult FindEquivalentRewriting(const ConjunctiveQuery& query,
                                      const ViewSet& views) {
  return EquivalentRewriter(query, views).Run();
}

bool RewritingIsEquivalent(const ConjunctiveQuery& query,
                           const UnionQuery& rewriting, const ViewSet& views) {
  UnionQuery expanded;
  for (const ConjunctiveQuery& disjunct : rewriting.disjuncts()) {
    expanded.Add(ExpandForCheck(disjunct, views, /*simplify=*/true));
  }
  return CqacContainedInUnion(query, expanded) &&
         UnionCqacContained(expanded, UnionQuery({query}));
}

}  // namespace cqac

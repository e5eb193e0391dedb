#include "rewriting/equiv_rewriter.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

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
                                const ViewTemplates& views, bool simplify) {
  IdQuery expansion = ExpandToIds(disjunct, views);
  if (simplify) SimplifyIds(&expansion);
  return expansion.ToQuery();
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
/// deduplication, into `key`: per view, its ground-tuple count and each
/// value as the representative id of its order block (a value outside
/// every block as an escape word plus its numerator and denominator),
/// then every slot's representative id.  Equal keys mean equal rendered
/// view tuples and variable -> representative maps (the reference string
/// form is testing::BuildPhase1Key).  The kept MCD set under every
/// pruning mode, the combination verdict, and the Pre-Rewriting body are
/// pure functions of this key; only the projected order comparisons are
/// not.
void BuildPhase1MemoKey(const CanonicalFreezer& freezer,
                        const ViewTupleEvaluator& ev, Phase1Key* key) {
  key->clear();
  for (int v = 0; v < ev.view_count(); ++v) {
    const std::set<Tuple>& tuples = ev.ground(v).tuples();
    key->push_back(static_cast<uint32_t>(tuples.size()));
    for (const Tuple& ground : tuples) {
      for (const Rational& value : ground) {
        const uint32_t id = freezer.RepIdOfValue(value);
        key->push_back(id);
        if (id != CanonicalFreezer::kOutsideBlocks) continue;
        for (const int64_t part : {value.num(), value.den()}) {
          const auto bits = static_cast<uint64_t>(part);
          key->push_back(static_cast<uint32_t>(bits));
          key->push_back(static_cast<uint32_t>(bits >> 32));
        }
      }
    }
  }
  const std::vector<uint32_t>& rep_ids = freezer.block_rep_ids();
  for (const uint32_t block : freezer.var_blocks()) {
    key->push_back(rep_ids[block]);
  }
}

/// The key of the Pre-Rewriting `entry` yields on the current canonical
/// database, into `key`: the body's size and MCD indices, then, per body
/// variable with a slot, 2 * (rank of its block among the visible blocks)
/// + (1 if the block holds a constant).  A block is visible when it holds
/// a body variable or a constant; the visible blocks in order, with the
/// run's fixed constants, are what TotalOrder::ProjectedComparisons
/// renders, so equal keys mean equal Pre-Rewritings.  `rank` is scratch.
void BuildPreRewritingKey(const Phase1Entry& entry,
                          const CanonicalFreezer& freezer,
                          std::vector<uint32_t>* rank, Phase1Key* key) {
  const std::vector<uint32_t>& blocks = freezer.var_blocks();
  const std::vector<uint32_t>& rep_ids = freezer.block_rep_ids();
  rank->assign(rep_ids.size(), 0);
  for (const uint32_t slot : entry.body_slots) {
    if (slot != Phase1Entry::kNoSlot) (*rank)[blocks[slot]] = 1;
  }
  uint32_t visible = 0;
  for (size_t b = 0; b < rep_ids.size(); ++b) {
    const uint32_t constant =
        rep_ids[b] >= CanonicalFreezer::kConstantRepId ? 1 : 0;
    if ((*rank)[b] != 0 || constant != 0) {
      (*rank)[b] = 2 * visible++ + constant;
    }
  }
  key->assign(1, static_cast<uint32_t>(entry.body_mcds.size()));
  key->insert(key->end(), entry.body_mcds.begin(), entry.body_mcds.end());
  for (const uint32_t slot : entry.body_slots) {
    if (slot != Phase1Entry::kNoSlot) key->push_back((*rank)[blocks[slot]]);
  }
}

/// The Pre-Rewriting PR_i' of `entry` on the database of `order`: the
/// body's view tuples plus the order projected onto their variables.
ConjunctiveQuery BuildPreRewriting(const RewriteWork& work,
                                   const Phase1Entry& entry,
                                   const TotalOrder& order) {
  std::vector<Atom> body;
  body.reserve(entry.body_mcds.size());
  for (const int i : entry.body_mcds) body.push_back(work.mcds[i].view_tuple);
  return ConjunctiveQuery(work.query.head(), std::move(body),
                          order.ProjectedComparisons(entry.body_vars));
}

std::atomic<internal::Phase1KeyObserver> g_key_observer{nullptr};

/// Hashes and compares view tuples through pointers, so PrepareRewriteWork
/// can index them without copying.
struct AtomPtrHash {
  size_t operator()(const Atom* a) const { return a->Hash(); }
};
struct AtomPtrEq {
  bool operator()(const Atom* a, const Atom* b) const { return *a == *b; }
};

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

const char* RewriteOutcomeName(RewriteOutcome outcome) {
  switch (outcome) {
    case RewriteOutcome::kRewritingFound: return "found";
    case RewriteOutcome::kNoRewriting: return "none";
    case RewriteOutcome::kAborted: return "aborted";
  }
  return "unknown";
}

std::string RenderStatsFields(const std::string& outcome, int64_t disjuncts,
                              const RewriteStats& stats) {
  const auto field = [](const char* name, int64_t value) {
    return std::string(", \"") + name + "\": " + std::to_string(value);
  };
  return "\"schema_version\": " + std::to_string(kStatsJsonSchemaVersion) +
         ", \"outcome\": \"" + outcome + "\"" +
         field("disjuncts", disjuncts) +
         field("canonical_databases", stats.canonical_databases) +
         field("kept_canonical_databases", stats.kept_canonical_databases) +
         field("mcds_formed", stats.mcds_formed) +
         field("phase2_checks", stats.phase2_checks) +
         field("phase2_orders", stats.phase2_orders) +
         field("phase1_memo_hits", stats.phase1_memo_hits) +
         field("phase1_memo_misses", stats.phase1_memo_misses) +
         field("enumeration_ns", stats.enumeration_ns) +
         field("freeze_ns", stats.freeze_ns) +
         field("phase1_ns", stats.phase1_ns) +
         field("phase2_ns", stats.phase2_ns);
}

std::string RenderPhaseLines(const RewriteStats& stats) {
  return "phase-1: " + std::to_string(stats.canonical_databases) +
         " databases visited, " +
         std::to_string(stats.canonical_databases -
                        stats.kept_canonical_databases) +
         " pruned, " + std::to_string(stats.phase1_memo_hits) +
         " deduped (memo hits), " + std::to_string(stats.phase1_memo_misses) +
         " computed in full\nphase-times: enumeration " +
         std::to_string(stats.enumeration_ns) + " ns, freeze " +
         std::to_string(stats.freeze_ns) + " ns, phase1 " +
         std::to_string(stats.phase1_ns) + " ns, phase2 " +
         std::to_string(stats.phase2_ns) + " ns\n";
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

  work.view_templates = ViewTemplates(views);
  work.query_constants = query.Constants();

  // All constants of the query and the views participate in the orders.
  work.constants = work.query_constants;
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
  std::unordered_map<const Atom*, int, AtomPtrHash, AtomPtrEq> first_of;
  first_of.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    const auto [it, inserted] =
        first_of.try_emplace(&work.mcds[i].view_tuple, static_cast<int>(i));
    work.mcd_dup_of[i] = it->second;
    if (inserted) distinct.push_back(static_cast<int>(i));
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

namespace {

/// The per-thread Phase-1 state (Phase 1 runs on worker threads).  The
/// freezer, evaluator and matcher are recompiled, and the layout resolved,
/// when a different run's work arrives; the buffers keep their capacity,
/// so a memo hit allocates nothing here.
struct Phase1Cache {
  uint64_t work_id = 0;
  std::optional<CanonicalFreezer> freezer;
  std::optional<ViewTupleEvaluator> evaluator;
  std::optional<FrozenTupleMatcher> matcher;
  PreparedQuery::Scratch scratch;
  // The enumeration's layout, to which the freezer is bound: the query's
  // variables and the run's constants as OrderStates number them.
  std::vector<std::string> variables;
  std::vector<Rational> constants;
  std::vector<uint32_t> query_relations;  // the keep test's, resolved once
  // MCD i's view-tuple argument k -> its freezer slot, or kNoSlot.
  std::vector<std::vector<uint32_t>> mcd_arg_slots;
  TotalOrder rendered;        // the last order rendered for text
  OrderState adapter_state;   // ProcessCanonicalDatabase's order, as a state
  Phase1Key memo_key;
  Phase1Key pre_key;
  std::vector<uint32_t> block_rank;  // BuildPreRewritingKey's scratch
  Phase1Entry computed;              // the conclusion of the last miss
};

Phase1Cache& ThreadPhase1Cache(const RewriteWork& work) {
  static thread_local Phase1Cache cache;
  if (cache.work_id != work.work_id) {
    cache.freezer.emplace(work.query);
    cache.variables = work.query.AllVariables();
    cache.constants = OrderConstants(work.constants);
    std::vector<uint32_t> var_reps;
    var_reps.reserve(cache.variables.size());
    for (const std::string& v : cache.variables) {
      var_reps.push_back(cache.freezer->VariableRepId(v));
    }
    cache.freezer->BindLayout(var_reps, cache.constants);
    work.prepared_query.ResolveRelations(cache.freezer->instance(),
                                         &cache.query_relations);
    cache.mcd_arg_slots.assign(work.mcds.size(), {});
    for (size_t i = 0; i < work.mcds.size(); ++i) {
      for (const Term& t : work.mcds[i].view_tuple.args()) {
        const auto it = t.IsVariable()
                            ? cache.freezer->var_slots().find(t.name())
                            : cache.freezer->var_slots().end();
        cache.mcd_arg_slots[i].push_back(
            it != cache.freezer->var_slots().end() ? it->second
                                                   : Phase1Entry::kNoSlot);
      }
    }
    cache.evaluator.emplace(work.views);
    std::vector<Atom> mcd_tuples;
    mcd_tuples.reserve(work.mcds.size());
    for (const Mcd& mcd : work.mcds) mcd_tuples.push_back(mcd.view_tuple);
    cache.matcher.emplace(std::move(mcd_tuples), *cache.freezer);
    cache.work_id = work.work_id;
  }
  return cache;
}

/// The order of `state` for text: `given` when the caller holds it, else
/// rendered into the cache.  Only explain traces, failure messages, the
/// key observer and Pre-Rewritings need one.
const TotalOrder& OrderOf(Phase1Cache& cache, const OrderState& state,
                          const TotalOrder* given) {
  if (given != nullptr) return *given;
  RenderOrder(state, cache.variables, cache.constants, &cache.rendered);
  return cache.rendered;
}

/// Steps 3.4-3.7 on the current database, in full: bucket pruning, the
/// MiniCon existence check and the Pre-Rewriting body, into `entry`.
void ComputePhase1Entry(const RewriteWork& work, Phase1Cache& cache,
                        Phase1Entry* entry) {
  const RewriteOptions& options = work.options;
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
  entry->mcds_kept = static_cast<int64_t>(kept.size());
  entry->body_mcds.clear();
  entry->body_vars.clear();
  entry->body_slots.clear();

  // Step 3.5: MiniCon phase 2 as an existence check.
  entry->combination_exists =
      McdCombinationExists(work.mcds, kept, work.num_subgoals);
  if (!entry->combination_exists) return;

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
    for (size_t i = 0; i < body_idx.size(); ++i) {
      if (!dropped[i]) entry->body_mcds.push_back(body_idx[i]);
    }
  }
  std::sort(entry->body_mcds.begin(), entry->body_mcds.end(),
            [&work](int a, int b) {
              return work.mcd_rank[a] < work.mcd_rank[b];
            });
  for (const int i : entry->body_mcds) {
    const std::vector<Term>& args = work.mcds[i].view_tuple.args();
    for (size_t k = 0; k < args.size(); ++k) {
      if (!args[k].IsVariable() ||
          std::find(entry->body_vars.begin(), entry->body_vars.end(),
                    args[k].name()) != entry->body_vars.end()) {
        continue;
      }
      entry->body_vars.push_back(args[k].name());
      entry->body_slots.push_back(cache.mcd_arg_slots[i][k]);
    }
  }
}

/// A kept database's Pre-Rewriting before it is built: its key and the
/// entry building it takes.  Both point into the calling thread's
/// Phase-1 state and stay valid until the thread's next database.
struct PendingPreRewriting {
  const Phase1Key* key = nullptr;
  const Phase1Entry* entry = nullptr;
};

/// Phase-1 steps 2-3.7 proper, on the database of `state` (over the
/// thread's Phase1Cache layout; `given`, when non-null, is the same order
/// as the caller's TotalOrder).  With `pending` null the Pre-Rewriting of
/// a kept database is built into the outcome; otherwise `pending`
/// receives its key and entry, and only an explain run (whose trace
/// renders it) or the key observer builds it.
DatabaseOutcome RunPhase1(const RewriteWork& work, const OrderState& state,
                          const TotalOrder* given, Phase1Memo* memo,
                          PendingPreRewriting* pending) {
  const RewriteOptions& options = work.options;
  DatabaseOutcome out;
  Phase1Cache& cache = ThreadPhase1Cache(work);
  if (options.explain) {
    out.trace.order = OrderOf(cache, state, given).ToString();
  }

  // Keep only databases on which the query computes its frozen head
  // (general evaluation: the identity freezing need not be the witnessing
  // embedding).  The keep-test runs on a delta freeze with the shared
  // prepared plan — consecutive orders differ in few blocks, so the
  // freezer patches only the moved rows, and the view evaluator re-derives
  // only views whose relations changed.
  bool computes_head;
  {
    CQAC_TRACE_SPAN("phase1.freeze");
    const int64_t freeze_t0 = NowNs();
    const FlatInstance& inst = cache.freezer->Freeze(state);
    computes_head = work.prepared_query.Run(inst, cache.query_relations,
                                            &cache.freezer->frozen_head(),
                                            nullptr, &cache.scratch);
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
        OrderOf(cache, state, given).ToString() + "]";
    if (options.explain) out.trace.status = "no-view-tuples";
    return out;
  }

  // Databases with equal structural keys share one Phase-1 conclusion:
  // on a memo hit the kept count, combination verdict, and Pre-Rewriting
  // body are replayed, and only the order-dependent projected comparisons
  // are rebuilt.  Explain runs bypass the memo so every database's trace
  // stays complete.
  if (options.explain) memo = nullptr;
  const Phase1Entry* entry = nullptr;
  if (memo != nullptr) {
    CQAC_TRACE_SPAN("phase1.memo_probe");
    BuildPhase1MemoKey(*cache.freezer, *cache.evaluator, &cache.memo_key);
    entry = memo->Find(cache.memo_key);
  }
  if (entry != nullptr) {
    ++out.stats.phase1_memo_hits;
  } else {
    if (memo != nullptr) ++out.stats.phase1_memo_misses;
    ComputePhase1Entry(work, cache, &cache.computed);
    if (memo != nullptr) memo->Insert(cache.memo_key, cache.computed);
    entry = &cache.computed;
  }
  out.stats.mcds_kept_total += entry->mcds_kept;
  if (options.explain) out.trace.kept_mcds = entry->mcds_kept;

  const internal::Phase1KeyObserver observer =
      g_key_observer.load(std::memory_order_relaxed);
  internal::Phase1KeyProbe probe{observer != nullptr
                                     ? &OrderOf(cache, state, given)
                                     : nullptr,
                                 cache.freezer.operator->(),
                                 cache.evaluator.operator->(),
                                 memo != nullptr ? &cache.memo_key : nullptr,
                                 nullptr, nullptr};
  if (!entry->combination_exists) {
    out.status = DatabaseOutcome::Status::kFailed;
    out.failure_reason =
        "no MiniCon combination covers the query on canonical "
        "database [" +
        OrderOf(cache, state, given).ToString() + "]";
    if (options.explain) out.trace.status = "no-mcr";
    if (observer != nullptr) observer(probe);
    return out;
  }
  if (options.explain) out.trace.combination_exists = true;

  BuildPreRewritingKey(*entry, *cache.freezer, &cache.block_rank,
                       &cache.pre_key);
  if (pending == nullptr || options.explain || observer != nullptr) {
    out.pre_rewriting =
        BuildPreRewriting(work, *entry, OrderOf(cache, state, given));
  }
  if (pending != nullptr) *pending = {&cache.pre_key, entry};
  if (options.explain) {
    out.trace.pre_rewriting = out.pre_rewriting->ToString();
    out.trace.status = "ok";
  }
  if (observer != nullptr) {
    probe.pre_rewriting_key = &cache.pre_key;
    probe.pre_rewriting = &*out.pre_rewriting;
    observer(probe);
  }
  out.status = DatabaseOutcome::Status::kKept;
  return out;
}

/// RunPhase1 with the per-database span and wall-time accounting (kept
/// outside so the duration lands in the returned stats after the body
/// finishes).
DatabaseOutcome RunPhase1Timed(const RewriteWork& work,
                               const OrderState& state,
                               const TotalOrder* given, Phase1Memo* memo,
                               PendingPreRewriting* pending) {
  CQAC_TRACE_SPAN("phase1.database");
  const int64_t t0 = NowNs();
  DatabaseOutcome out = RunPhase1(work, state, given, memo, pending);
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

/// The Pre-Rewriting `pending` stands for, built on the calling thread's
/// last database, that of `state`.
ConjunctiveQuery BuildPendingPreRewriting(const RewriteWork& work,
                                          const OrderState& state,
                                          const PendingPreRewriting& pending) {
  Phase1Cache& cache = ThreadPhase1Cache(work);
  return BuildPreRewriting(work, *pending.entry,
                           OrderOf(cache, state, nullptr));
}

}  // namespace

namespace internal {

void SetPhase1KeyObserverForTest(Phase1KeyObserver observer) {
  g_key_observer.store(observer, std::memory_order_relaxed);
}

}  // namespace internal

DatabaseOutcome ProcessCanonicalDatabase(const RewriteWork& work,
                                         const TotalOrder& order,
                                         Phase1Memo* memo) {
  Phase1Cache& cache = ThreadPhase1Cache(work);
  StateOfOrder(order, cache.variables, cache.constants, &cache.adapter_state);
  return RunPhase1Timed(work, cache.adapter_state, &order, memo, nullptr);
}

namespace {
std::atomic<internal::Phase2Observer> g_phase2_observer{nullptr};
}  // namespace

namespace internal {

void SetPhase2ObserverForTest(Phase2Observer observer) {
  g_phase2_observer.store(observer, std::memory_order_relaxed);
}

}  // namespace internal

Phase2Outcome CheckExpansionContained(const RewriteWork& work,
                                      const ConjunctiveQuery& pre) {
  CQAC_TRACE_SPAN("phase2.check");
  const int64_t t0 = NowNs();
  IdQuery expansion;
  bool satisfiable = false;
  {
    CQAC_TRACE_SPAN("phase2.expand");
    expansion = ExpandToIds(pre, work.view_templates);
    satisfiable = work.options.simplify_expansions
                      ? SimplifyIds(&expansion)
                      : expansion.core.Satisfiable(expansion.comparisons);
  }
  ContainmentStats cstats;
  Phase2Outcome out;
  // An unsatisfiable expansion computes nothing: contained, with 0 orders.
  out.contained = !satisfiable ||
                  CqacContainedPrepared(expansion, work.prepared_query,
                                        work.query_constants, &cstats);
  out.orders_enumerated = cstats.orders_enumerated;
  out.wall_ns = NowNs() - t0;
  if (const internal::Phase2Observer observer =
          g_phase2_observer.load(std::memory_order_relaxed)) {
    const ConjunctiveQuery rendered = expansion.ToQuery();
    observer({&work, &pre, &rendered, &out});
  }
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
      expanded.Add(ExpandForCheck(d, work.view_templates,
                                  options.simplify_expansions));
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
          others_expanded.Add(ExpandForCheck(
              disjuncts[j], work.view_templates, options.simplify_expansions));
        }
      }
      const ConjunctiveQuery expansion_i = ExpandForCheck(
          disjuncts[i], work.view_templates, options.simplify_expansions);
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
  // over a pool owned by this run.
  std::optional<ThreadPool> owned_pool;
  if (driver.jobs != 1) {
    owned_pool.emplace(ThreadPool::ResolveJobs(driver.jobs));
  }
  ThreadPool* const pool = owned_pool.has_value() ? &*owned_pool : nullptr;
  report->jobs = pool != nullptr ? pool->num_threads() : 1;

  // --- Phase 1: one Pre-Rewriting per kept canonical database ---
  //
  // One task per enumeration subtree, split at the smallest depth giving
  // 16 per pool thread (jobs == 1: the depth-0 tree, on this thread).

  const int num_variables =
      static_cast<int>(work.query.AllVariables().size());
  const int num_constants =
      static_cast<int>(OrderConstants(work.constants).size());
  int depth = 0;
  while (pool != nullptr && depth < num_variables &&
         CountTotalOrders(depth, num_constants) <
             int64_t{16} * pool->num_threads()) {
    ++depth;
  }
  const OrderEnumerator tree(num_variables, num_constants);
  std::vector<OrderState> prefixes;
  {
    OrderState root = tree.Root();
    tree.Walk(&root, depth, [&prefixes](const OrderState& prefix) {
      prefixes.push_back(prefix);
      return true;
    });
  }

  // The budget aborts upon enumerating database max+1, after the first max
  // were fully processed: subtree s may visit limits[s] databases (-1: no
  // cap), and subtrees starting past the budget never run.
  std::vector<int64_t> limits;
  bool over_budget = false;  // database max+1 exists
  int64_t left = driver.max_canonical_databases;
  for (const OrderState& prefix : prefixes) {
    if (left == 0) {
      over_budget = true;
      break;
    }
    limits.push_back(left);
    if (left < 0) continue;
    const int64_t count =
        CountOrderCompletions(prefix.num_blocks, num_variables - depth);
    over_budget = count > left;
    left -= std::min(count, left);
  }
  const int64_t num_tasks = static_cast<int64_t>(limits.size());

  // One subtree's databases up to and including its first failure.  Its
  // Pre-Rewritings are deduplicated locally and keep their key.
  struct SubtreeOutcome {
    RewriteStats stats;  // canonical_databases: the databases it visited
    std::vector<CanonicalDatabaseTrace> traces;
    std::vector<std::pair<Phase1Key, ConjunctiveQuery>> pre_rewritings;
    std::optional<std::string> failure_reason;  // set iff it failed
  };
  std::vector<SubtreeOutcome> subtrees(static_cast<size_t>(num_tasks));
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

  // A failing subtree cancels the subtrees past it, never those below it
  // (see PrefixCancel).
  const auto run_subtree = [&](int64_t s) {
    if (!db_cancel.ShouldRun(s) || cancelled()) return;
    db_executed.fetch_add(1, std::memory_order_relaxed);
    // Filled locally and stored once: the neighbouring slots belong to
    // other workers, so writing the slot per database would share lines.
    SubtreeOutcome out;
    std::unordered_set<Phase1Key, Phase1KeyHash> seen;
    // The subtree's own Phase-1 memo: one thread runs the subtree start
    // to finish, so the hit/miss split depends only on the partition.
    Phase1Memo memo;
    OrderState state = prefixes[static_cast<size_t>(s)];
    tree.Walk(
        &state, num_variables,
        [&](const OrderState& order) {
          if (cancelled() || !db_cancel.ShouldRun(s) ||
              out.stats.canonical_databases == limits[s]) {
            return false;
          }
          PendingPreRewriting pending;
          DatabaseOutcome db =
              RunPhase1Timed(work, order, nullptr,
                             driver.phase1_dedup ? &memo : nullptr, &pending);
          ++out.stats.canonical_databases;
          out.stats.Merge(db.stats);
          if (explain) out.traces.push_back(std::move(db.trace));
          if (db.status == DatabaseOutcome::Status::kFailed) {
            out.failure_reason = std::move(db.failure_reason);
            db_cancel.FailAt(s);
            note_failure();
            return false;
          }
          // Only a subtree's first database with a given key builds its
          // Pre-Rewriting.
          if (db.status == DatabaseOutcome::Status::kKept &&
              seen.find(*pending.key) == seen.end()) {
            seen.insert(*pending.key);
            out.pre_rewritings.emplace_back(
                *pending.key,
                db.pre_rewriting.has_value()
                    ? *std::move(db.pre_rewriting)
                    : BuildPendingPreRewriting(work, order, pending));
          }
          return true;
        });
    subtrees[static_cast<size_t>(s)] = std::move(out);
  };

  // The one merge, in subtree order; it frees each subtree.  After a
  // failure the rest are only freed, as the inline loop never reaches them.
  std::vector<ConjunctiveQuery> pre_rewritings;
  std::unordered_set<Phase1Key, Phase1KeyHash> pre_rewriting_keys;
  bool failed = false;
  const auto merge_subtree = [&](int64_t s) {
    SubtreeOutcome out = std::move(subtrees[static_cast<size_t>(s)]);
    if (failed) return;
    result.stats.Merge(out.stats);
    for (CanonicalDatabaseTrace& db : out.traces) {
      result.trace.databases.push_back(std::move(db));
    }
    for (auto& [key, pre] : out.pre_rewritings) {
      if (pre_rewriting_keys.insert(std::move(key)).second) {
        pre_rewritings.push_back(std::move(pre));
      }
    }
    if (out.failure_reason.has_value()) {
      failed = true;
      result.failure_reason = *std::move(out.failure_reason);
    }
  };

  const int64_t enumerate_t0 = NowNs();
  {
    CQAC_TRACE_SPAN("phase1.enumerate");
    FanOut(pool, num_tasks, run_subtree, merge_subtree);
  }
  result.stats.enumeration_ns = NowNs() - enumerate_t0;
  report->db_tasks_total = num_tasks;
  report->db_tasks_executed = db_executed.load();
  report->db_tasks_cancelled =
      report->db_tasks_total - report->db_tasks_executed;

  // The verdict cascade.  Cancellation comes first: a task that observed
  // the token mid-flight skipped its database, so any conclusion drawn
  // from the merged outcomes would rest on partial work.  The token is
  // monotonic, so re-checking here also catches a cancel that landed
  // after the last enumeration callback.  A failure merged from the first
  // max databases beats the budget abort.
  const auto finish = [&](RewriteOutcome outcome, std::string reason) {
    result.outcome = outcome;
    if (!reason.empty()) result.failure_reason = std::move(reason);
    if (pool != nullptr && obs::MetricsActive()) {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      reg.gauge("threadpool.max_queue_depth").Max(pool->max_queue_depth());
      const int64_t fail_ns = first_fail_ns.load(std::memory_order_relaxed);
      if (fail_ns != 0) {
        reg.histogram("parallel.cancel_drain_ns").Observe(NowNs() - fail_ns);
      }
    }
    RecordRunMetrics(result.stats, *report, pool != nullptr);
    return std::move(result);
  };
  if (cancelled()) {
    return finish(RewriteOutcome::kAborted, kCancelledReason);
  }
  if (failed) return finish(RewriteOutcome::kNoRewriting, "");
  if (over_budget) {
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
  PrefixCancel p2_cancel;
  std::atomic<int64_t> p2_executed{0};
  FanOut(
      pool, num_pres,
      [&](int64_t i) {
        if (!p2_cancel.ShouldRun(i) || cancelled()) return;
        checks[i] = CheckExpansionContained(work, pre_rewritings[i]);
        p2_executed.fetch_add(1, std::memory_order_relaxed);
        if (!checks[i].contained) {
          p2_cancel.FailAt(i);
          note_failure();
        }
      },
      [](int64_t) {});
  report->phase2_tasks_executed = p2_executed.load();
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
  const ViewTemplates templates(views);
  UnionQuery expanded;
  for (const ConjunctiveQuery& disjunct : rewriting.disjuncts()) {
    expanded.Add(ExpandForCheck(disjunct, templates, /*simplify=*/true));
  }
  return CqacContainedInUnion(query, expanded) &&
         UnionCqacContained(expanded, UnionQuery({query}));
}

}  // namespace cqac

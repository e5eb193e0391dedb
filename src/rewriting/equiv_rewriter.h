#ifndef CQAC_REWRITING_EQUIV_REWRITER_H_
#define CQAC_REWRITING_EQUIV_REWRITER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ast/query.h"
#include "constraints/orders.h"
#include "engine/evaluate.h"
#include "rewriting/expansion.h"
#include "rewriting/explain.h"
#include "rewriting/minicon.h"
#include "rewriting/view_set.h"
#include "runtime/cancellation.h"

namespace cqac {

struct AcyclicPlan;  // Never defined; see RewriteWork::acyclic_plan.
class CanonicalFreezer;    // engine/canonical.h
class Phase1Memo;          // runtime/memo_cache.h
class ViewTupleEvaluator;  // rewriting/view_tuples.h

/// Options controlling the equivalent-rewriting algorithm.
struct RewriteOptions {
  /// How Phase 1 step 3.4 prunes the MCD buckets against the canonical
  /// database's view tuples.
  /// Only kFrozenMatch (the default) carries the paper's Lemma 2 — that
  /// the union of Pre-Rewritings contains the query — by construction.
  /// The weaker modes exist as ablations; with them the algorithm runs an
  /// extra final containment check and may (correctly) answer
  /// kNoRewriting on inputs where the default finds one, demonstrating
  /// that the paper's pruning step 3.4 is required for completeness-with-
  /// soundness, not merely for speed.
  enum class Pruning {
    /// No pruning: every MCD stays in every bucket.
    kNone,
    /// Literal Definition 2: keep an MCD iff its view tuple is a more
    /// relaxed form of some unfrozen view tuple of the database.
    kRelaxedForm,
    /// Definition 2 grounded on the canonical database (the default):
    /// keep an MCD iff its view tuple, with query variables frozen,
    /// matches a ground view tuple.
    kFrozenMatch,
  };
  Pruning pruning = Pruning::kFrozenMatch;

  /// Simplify expansions (forced equalities, redundant comparisons) before
  /// the Phase-2 containment check.  Equivalence-preserving; dramatically
  /// reduces the number of variables the check enumerates.
  bool simplify_expansions = true;

  /// Independently verify the produced rewriting (both containment
  /// directions on the expansions) before returning it.
  bool verify = false;

  /// Compact the output union with the exact coalescing rules of
  /// rewriting/coalesce.h (merge adjacent comparison regions, drop
  /// subsumed disjuncts with equal bodies).  Off by default so the raw
  /// one-disjunct-per-canonical-database output matches the paper's
  /// presentation.
  bool coalesce_output = false;

  /// Greedily drop output disjuncts whose expansion is covered by the
  /// remaining disjuncts' expansions.  Produces the compact unions shown
  /// in the paper's examples; costs one union-containment check per
  /// disjunct.
  bool minimize_output = false;

  /// Share Phase-1 conclusions between the canonical databases of one
  /// Phase-1 subtree task that have equal structural keys (same unfrozen
  /// view-tuple multiset and variable-to-block map): the pruning,
  /// combination check, and Pre-Rewriting body are computed once and
  /// replayed, with only the order-dependent comparisons rebuilt per
  /// database.  Results are byte-identical either way; only the
  /// phase1_memo_* counters and wall time change.  Treated as false when
  /// `explain` is set, so traces stay complete.
  bool phase1_dedup = true;

  /// Collect a per-canonical-database trace (RewriteResult::trace),
  /// including the paper's two-column tableau.  Costs memory and a little
  /// time; off by default.
  bool explain = false;

  /// Abort (outcome kAborted) once this many canonical databases of the
  /// query have been enumerated; -1 means no limit.
  int64_t max_canonical_databases = -1;

  /// Worker threads for the canonical-database fan-out and the Phase-2
  /// containment checks (the schedule of RunPreparedRewrite).  1 (the
  /// default) runs every work unit inline on the calling thread; 0 means
  /// std::thread::hardware_concurrency(); any other value is the size of
  /// the thread pool the units fan out over.  Results are byte-identical
  /// regardless of the value.
  int jobs = 1;

  /// Cooperative cancellation (runtime/cancellation.h), the mechanism
  /// behind per-request deadlines in the rewrite service.  When non-null,
  /// the driver polls the token at canonical-database and Phase-2
  /// containment-check boundaries and abort with outcome kAborted and
  /// failure_reason "cancelled" as soon as it is set.  Abort latency is
  /// therefore bounded by one work unit (one ProcessCanonicalDatabase or
  /// one CheckExpansionContained call), not by the whole run.  The caller
  /// keeps ownership; the token must outlive Run().
  const CancellationToken* cancel = nullptr;
};

/// The failure_reason of a run aborted through RewriteOptions::cancel;
/// distinguishes cancellation from the database-budget abort, which
/// shares RewriteOutcome::kAborted.
inline constexpr const char kCancelledReason[] = "cancelled";

/// Counters describing the work one Run() performed.
struct RewriteStats {
  int64_t canonical_databases = 0;       // total orders enumerated
  int64_t kept_canonical_databases = 0;  // on which Q computes its head
  int64_t v0_variants = 0;               // exported view variants
  int64_t mcds_formed = 0;               // MCDs over Q0/V0 (formed once)
  int64_t mcds_kept_total = 0;           // sum over kept databases
  int64_t view_tuples_total = 0;         // sum of |T_i(V)|
  int64_t phase2_checks = 0;             // expansion containment checks
  int64_t phase2_orders = 0;             // orders visited by those checks
  int64_t phase1_memo_hits = 0;          // databases served from the memo
  int64_t phase1_memo_misses = 0;        // databases computed in full

  // Per-phase wall time, in nanoseconds of std::chrono::steady_clock.
  // Accumulated element-wise through Merge like every other field, so the
  // inline and pooled schedules aggregate them identically — the *values*
  // are wall-clock measurements and naturally vary run to run.  The
  // work-summed fields (freeze/phase1/phase2) add up per-unit durations
  // across all workers, so on a parallel run phase1_ns can exceed
  // enumeration_ns (total CPU time vs. elapsed time of the fan-out loop).
  int64_t enumeration_ns = 0;  // elapsed time of the Phase-1 loop/fan-out
  int64_t freeze_ns = 0;       // sum: delta freeze + keep-test, per database
  int64_t phase1_ns = 0;       // sum: full ProcessCanonicalDatabase calls
  int64_t phase2_ns = 0;       // sum: CheckExpansionContained calls

  /// Element-wise accumulation.  The driver builds its totals exclusively
  /// through Merge, so equal work yields equal counters regardless of
  /// thread count.
  void Merge(const RewriteStats& other);
};

/// Version of the one-line JSON records emitted by `cqacsh --json` (per
/// rewrite and per batch).  Bump on any field addition, removal, or
/// meaning change; the record shapes and the version history are in
/// docs/SYNTAX.md.
inline constexpr int kStatsJsonSchemaVersion = 9;

/// The per-rewrite record's fields, `"schema_version"` through
/// `"phase2_ns"`, without braces: the shell's `--json` record and the
/// service's `counters` object open with them.  `outcome` is its wire name.
std::string RenderStatsFields(const std::string& outcome, int64_t disjuncts,
                              const RewriteStats& stats);

/// The `phase-1:` and `phase-times:` lines of the shell's and the batch
/// driver's `stats` output.
std::string RenderPhaseLines(const RewriteStats& stats);

enum class RewriteOutcome {
  kRewritingFound,
  kNoRewriting,
  kAborted,  // max_canonical_databases exceeded
};

/// "found", "none" or "aborted", as the stats records and reports print it.
const char* RewriteOutcomeName(RewriteOutcome outcome);

/// The algorithm's answer.
struct RewriteResult {
  RewriteOutcome outcome = RewriteOutcome::kNoRewriting;

  /// The equivalent rewriting (union of CQACs over the view predicates);
  /// meaningful iff `outcome == kRewritingFound`.
  UnionQuery rewriting;

  /// True when options.verify was set and the verification passed.
  bool verified = false;

  /// Human-readable explanation for kNoRewriting / kAborted.
  std::string failure_reason;

  /// Per-database trace; populated iff options.explain.
  RewriteTrace trace;

  RewriteStats stats;

  /// True when a ViewCatalog's semantic result cache served this answer
  /// without running the algorithm (catalog/view_catalog.h).  The stats
  /// then replay the original run's counters verbatim — the
  /// configuration-invariant ones are provably what a fresh run would
  /// report; the wall times and Phase-1 memo splits are the original
  /// run's.
  bool from_semantic_cache = false;

  /// Epoch of the catalog that produced this result; 0 when the run did
  /// not go through a catalog.
  uint64_t catalog_epoch = 0;

  // Inert and never rendered; read by perfbench/src/served.cc:368-369.
  int tier = 0;
  std::string tier_reason;
};

// ---------------------------------------------------------------------------
// Work units.
//
// The algorithm decomposes into an immutable per-run context plus two kinds
// of independent, side-effect-free work units: one per canonical database
// (Phase 1 steps 2-3.7) and one per Pre-Rewriting (the Phase-2 containment
// check).  RunPreparedRewrite schedules them either inline or over a thread
// pool and merges their outcomes in one place, in enumeration order, which
// is what makes the output byte-identical for every thread count.
// ---------------------------------------------------------------------------

/// The database-independent setup of one run (Section 3.2): the stripped
/// query Q0, the exported view variants V0, the MiniCon buckets over them,
/// and the constant pool of query and views.  Holds references to the
/// query/views/options, which must outlive it.  Immutable after
/// construction; safe to share across threads.
struct RewriteWork {
  RewriteWork(const ConjunctiveQuery& q, const ViewSet& v,
              const RewriteOptions& o)
      : query(q), views(v), options(o), prepared_query(q) {}

  const ConjunctiveQuery& query;
  const ViewSet& views;
  const RewriteOptions& options;

  /// The query compiled for repeated evaluation (the per-canonical-database
  /// keep-test).  Immutable, so sharing across worker threads is safe;
  /// each thread owns its PreparedQuery::Scratch.
  PreparedQuery prepared_query;

  /// Unique per prepared work instance; lets per-thread caches keyed on a
  /// RewriteWork (e.g. the canonical freezer in ProcessCanonicalDatabase)
  /// detect reuse of a stack address by a different run.
  uint64_t work_id = 0;

  // Phase 2's inputs, compiled once: the views as expansion templates and
  // the query's constants (the containment test's right-hand side is
  // prepared_query).
  ViewTemplates view_templates;
  std::vector<Rational> query_constants;

  ConjunctiveQuery q0;                        // query without comparisons
  std::vector<ConjunctiveQuery> v0_variants;  // exported view variants
  std::vector<Mcd> mcds;                      // buckets, formed once
  std::vector<Rational> constants;            // of query and views
  int num_subgoals = 0;

  // Relations over the MCD view tuples, derived once so the per-database
  // Pre-Rewriting assembly (dedup, fold-drop, sort) works on integers
  // instead of re-comparing atoms on every kept canonical database.
  std::vector<int> mcd_dup_of;  // i -> least j with an equal view tuple
  std::vector<int> mcd_rank;    // i -> rank of its tuple among distinct ones
  std::vector<char> mcd_folds;  // i * |mcds| + j -> tuple i folds onto j

  // Inert; read by perfbench/src/layers.cc:45-46.
  struct { int tier = 0; std::string reason; } tier;

  // Always null; read by perfbench/src/layers.cc:119.
  std::shared_ptr<const AcyclicPlan> acyclic_plan;
};

/// Builds the shared setup.  Deterministic for fixed inputs.
RewriteWork PrepareRewriteWork(const ConjunctiveQuery& query,
                               const ViewSet& views,
                               const RewriteOptions& options);

/// Overload reusing per-view machinery compiled ahead of time by a
/// ViewCatalog (catalog/view_catalog.h): `precompiled_v0` is the exported
/// variants of all views flattened in view order, `view_constants` the
/// views' deduplicated constant pool — both exactly what the first
/// overload would derive, so the resulting work is identical to a cold
/// build.  Either pointer may be null to fall back to deriving that part.
RewriteWork PrepareRewriteWork(
    const ConjunctiveQuery& query, const ViewSet& views,
    const RewriteOptions& options,
    const std::vector<ConjunctiveQuery>* precompiled_v0,
    const std::vector<Rational>* view_constants);

/// What Phase 1 concluded about one canonical database.
struct DatabaseOutcome {
  enum class Status {
    kSkipped,  // the query does not compute its frozen head here
    kFailed,   // no view tuples, or no covering MCD combination: the
               // paper's "no rewriting exists" short-circuit
    kKept,     // produced a Pre-Rewriting
  };
  Status status = Status::kSkipped;

  /// This database's contribution to the run counters.  Does NOT count
  /// `canonical_databases` — enumeration is the scheduler's business.
  RewriteStats stats;

  /// The Pre-Rewriting PR_i' (view tuples plus projected order
  /// constraints); set iff status == kKept.
  std::optional<ConjunctiveQuery> pre_rewriting;

  /// Set iff status == kFailed; becomes the run's failure_reason.
  std::string failure_reason;

  /// Per-database trace; populated iff options.explain.
  CanonicalDatabaseTrace trace;
};

/// Phase 1 steps 2-3.7 for a single canonical database: freeze, keep-test,
/// view tuples, bucket pruning, MiniCon existence check, Pre-Rewriting
/// assembly.  Pure function of (work, order); no shared mutable state.
///
/// `memo`, when non-null, deduplicates the pruning / combination /
/// body-assembly work across canonical databases with equal structural
/// keys (see Phase1Entry in runtime/memo_cache.h).  The memo must belong
/// to this run — its entries index into work.mcds — and to the calling
/// thread.  Results are byte-identical with or without it.
///
/// `order` must range over work.query.AllVariables() and work.constants.
/// An adapter: the driver runs the same steps on the OrderStates its
/// OrderEnumerator walks, and this converts `order` to one.
DatabaseOutcome ProcessCanonicalDatabase(const RewriteWork& work,
                                         const TotalOrder& order,
                                         Phase1Memo* memo = nullptr);

namespace internal {

/// One canonical database past Phase 1's view-tuple step, as the key
/// observer sees it.  Every pointer is valid only during the call.
struct Phase1KeyProbe {
  const TotalOrder* order;
  const CanonicalFreezer* freezer;  // frozen under `order`
  const ViewTupleEvaluator* evaluator;
  /// The integer memo key; null when the database ran without a memo.
  const std::vector<uint32_t>* memo_key;
  /// The integer Pre-Rewriting key and the Pre-Rewriting it stands for;
  /// null unless the database produced one.
  const std::vector<uint32_t>* pre_rewriting_key;
  const ConjunctiveQuery* pre_rewriting;
};
using Phase1KeyObserver = void (*)(const Phase1KeyProbe&);

/// Test-only: while set, Phase 1 calls `observer` for every database past
/// the view-tuple step, on the thread that ran it, and builds every
/// Pre-Rewriting for it.  The key parity test holds the integer keys to
/// their string forms this way.  Relaxed atomic: set or clear (nullptr)
/// only between runs.
void SetPhase1KeyObserverForTest(Phase1KeyObserver observer);

}  // namespace internal

/// What the Phase-2 containment check concluded about one Pre-Rewriting.
struct Phase2Outcome {
  bool contained = false;
  int64_t orders_enumerated = 0;
  int64_t wall_ns = 0;  // elapsed time of this check
};

/// Expands `pre` with respect to the views (simplifying when the options
/// say so) and tests containment in the query.  A pure function of its
/// arguments.  The expansion is built once in id form from
/// work.view_templates, simplified in place, and tested against
/// work.prepared_query: the same verdict and order count as
/// CqacContainedCanonical(SimplifyQuery(Expand(pre, views)), query).
Phase2Outcome CheckExpansionContained(const RewriteWork& work,
                                      const ConjunctiveQuery& pre);

namespace internal {

/// One Phase-2 check as its observer sees it; pointers valid only during
/// the call.
struct Phase2Probe {
  const RewriteWork* work;
  const ConjunctiveQuery* pre_rewriting;
  const ConjunctiveQuery* expansion;  // the checked expansion, rendered
  const Phase2Outcome* outcome;
};
using Phase2Observer = void (*)(const Phase2Probe&);

/// Test-only: while set, CheckExpansionContained renders its expansion and
/// calls `observer` on the thread that ran the check.  The Phase-2 parity
/// test holds the id-level check to the string reference this way.
/// Relaxed atomic: set or clear (nullptr) only between runs.
void SetPhase2ObserverForTest(Phase2Observer observer);

}  // namespace internal

/// The post-Phase-2 tail of the driver: coalescing, the weakened-pruning
/// Lemma-2 check, output minimization, and optional verification.  Sets
/// result->outcome / rewriting / verified / failure_reason.
void FinalizeFoundRewriting(const RewriteWork& work,
                            std::vector<ConjunctiveQuery> pre_rewritings,
                            RewriteResult* result);

/// Scheduling telemetry of one RunPreparedRewrite call: how the units were
/// executed and how the cooperative cancellation behaved.  Unlike
/// RewriteStats (which is byte-identical for every schedule), these
/// counters describe the execution itself and
/// legitimately vary run to run: a cancelled task is work the early abort
/// saved.  The db_tasks_* counters count Phase-1 enumeration subtrees (the
/// inline schedule runs one), not canonical databases.
struct ParallelRewriteReport {
  int jobs = 0;  // threads the units ran on (1 = inline)

  int64_t db_tasks_total = 0;      // subtree tasks handed out
  int64_t db_tasks_executed = 0;   // started their databases
  int64_t db_tasks_cancelled = 0;  // skipped: past a failure, or cancelled

  int64_t phase2_tasks_total = 0;
  int64_t phase2_tasks_executed = 0;
  int64_t phase2_tasks_cancelled = 0;
};

/// The rewriting driver: Phases 1-2 plus finalization over a prebuilt work
/// context.  EquivalentRewriter::Run and ViewCatalog::Rewrite (which
/// prepares the work from its compiled view data) both end here.
///
/// The schedule is the only thing `driver.jobs` changes.  Phase 1 splits
/// the order enumeration tree at the smallest prefix depth giving 16
/// subtrees per pool thread; each subtree is one task running the inline
/// loop over its canonical databases.  With jobs == 1 the whole tree is one
/// subtree and every unit runs inline on the calling thread; otherwise the
/// subtrees and the Phase-2 checks fan out (FanOut, runtime/thread_pool.h)
/// over a pool of ThreadPool::ResolveJobs(jobs) threads owned by the run,
/// and a PrefixCancel skips every task past the first failing one (the
/// paper's "some D_i has no MCR => no rewriting exists" short-circuit).
/// Outcomes merge in enumeration order, each subtree once it and every
/// earlier one are done, so the result (outcome, rewriting, failure
/// reason, trace, and every stat but the wall times and the Phase-1 memo
/// hit/miss split) is byte-identical for every thread count and task
/// interleaving.  The split depends on the subtree partition, so it is
/// fixed for a given `jobs`.
///
/// Phase semantics (pruning, simplification, explain, ...) come from
/// work.options; `driver` supplies only the scheduling-level knobs read per
/// request: `jobs`, `cancel`, `max_canonical_databases` and
/// `phase1_dedup`.  For the one-shot path the two are the same object.
///
/// With driver.phase1_dedup, each subtree task owns one Phase-1 memo.
/// `report`, when non-null, receives the scheduling telemetry.  The run's
/// counters are folded into the metrics registry (obs/metrics.h).
///
/// The caller must have handled the unsatisfiable-query shortcut
/// (RewriteOfUnsatisfiableQuery); `work` must come from a satisfiable query.
RewriteResult RunPreparedRewrite(const RewriteWork& work,
                                 const RewriteOptions& driver,
                                 ParallelRewriteReport* report = nullptr);

/// The answer for a query whose comparisons are contradictory: it computes
/// nothing, so the empty union is an equivalent rewriting.  nullopt when
/// the comparisons are satisfiable and the algorithm has to run.
std::optional<RewriteResult> RewriteOfUnsatisfiableQuery(
    const ConjunctiveQuery& query, const ViewSet& views,
    const RewriteOptions& options);

/// The paper's sound and complete algorithm (Section 3) for finding an
/// equivalent rewriting of a CQAC query using CQAC views, in the language
/// of unions of CQACs.
///
/// Phase 1 enumerates the canonical databases of the query (total orders
/// of its variables and all constants of query and views), keeps those on
/// which the query computes its frozen head, and builds one Pre-Rewriting
/// per database from the MiniCon MCDs of the comparison-stripped query
/// over the exported view variants, pruned against the database's view
/// tuples.  Phase 2 attaches each database's order constraints, expands
/// with respect to the views, and keeps the whole answer only if every
/// expansion is contained in the query (the two-column tableau).
class EquivalentRewriter {
 public:
  EquivalentRewriter(ConjunctiveQuery query, ViewSet views,
                     RewriteOptions options = {})
      : query_(std::move(query)),
        views_(std::move(views)),
        options_(options) {}

  /// Runs the algorithm: the unsatisfiable-query shortcut, else
  /// RunPreparedRewrite over a freshly prepared work context, scheduled
  /// per options.jobs.  Deterministic for fixed inputs and byte-identical
  /// for every options.jobs.
  RewriteResult Run();

 private:
  ConjunctiveQuery query_;
  ViewSet views_;
  RewriteOptions options_;
};

/// Convenience entry point with default options.
RewriteResult FindEquivalentRewriting(const ConjunctiveQuery& query,
                                      const ViewSet& views);

/// Independent equivalence check used for verification and tests:
/// expands `rewriting` with respect to `views` and tests both containment
/// directions against `query`.
bool RewritingIsEquivalent(const ConjunctiveQuery& query,
                           const UnionQuery& rewriting, const ViewSet& views);

}  // namespace cqac

#endif  // CQAC_REWRITING_EQUIV_REWRITER_H_

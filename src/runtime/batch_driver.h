#ifndef CQAC_RUNTIME_BATCH_DRIVER_H_
#define CQAC_RUNTIME_BATCH_DRIVER_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "rewriting/equiv_rewriter.h"
#include "rewriting/view_set.h"

namespace cqac {

struct CatalogRegistryStats;

/// Options of the batch service driver.
struct BatchOptions {
  /// Worker threads of the job pool; 0 = hardware concurrency.
  int jobs = 0;

  /// Per-job rewriting options.  `rewrite.jobs` is forced to 1: the batch
  /// driver parallelizes ACROSS jobs — each job runs its units inline
  /// on one worker, which keeps every core busy without oversubscribing.
  RewriteOptions rewrite;

  /// Echo each job's query/view definitions before its result.
  bool echo = false;

  /// Append a batch-wide Phase-1 footer (databases visited / pruned /
  /// deduped, aggregated over all jobs) after the standard summary lines.
  /// Behind `cqacsh --stats`; off by default so existing consumers of the
  /// batch output format are unaffected.
  bool print_stats = false;

  /// Append a one-line JSON record of the batch summary — job outcomes,
  /// containment-cache counters, and the aggregated rewrite stats
  /// including the Phase-1 memo hit/miss split.  Behind `cqacsh --json`.
  bool json_summary = false;

  /// Append a dump of the global metrics registry (obs/metrics.h) after
  /// the summary.  Behind `cqacsh --metrics`.
  bool print_metrics = false;
};

/// Counters of one RunBatch call — and the one job-outcome taxonomy
/// shared with the rewrite service (server/server.h): every job lands in
/// exactly one of found / none / aborted / deadline_exceeded / rejected /
/// errors.  The stdin batch driver has no deadlines or admission control,
/// so it leaves the two service counters at zero; the footer and JSON
/// record report them either way so the formats stay aligned.
struct BatchSummary {
  int64_t jobs_total = 0;
  int64_t found = 0;      // jobs with an equivalent rewriting
  int64_t none = 0;       // jobs with provably no rewriting
  int64_t aborted = 0;    // jobs that hit the canonical-database budget
  int64_t deadline_exceeded = 0;  // jobs cancelled by their deadline
  int64_t rejected = 0;   // jobs shed by admission control or drain
  int64_t errors = 0;     // jobs that failed to parse
  RewriteStats rewrite;   // per-job RewriteStats, merged over all jobs

  // Catalog counters (catalog/view_catalog.h), over resident catalogs.
  int64_t catalogs_built = 0;
  int64_t catalog_semantic_hits = 0;
  int64_t catalog_semantic_misses = 0;
  uint64_t catalog_epoch = 0;  // newest resident catalog's epoch

  /// Fills the catalog counters from a registry snapshot.
  void SetCatalogStats(const CatalogRegistryStats& stats);
};

/// One parsed job: a query plus its views.  `error` is set instead when
/// the block failed to parse; the other fields are then meaningless.
struct BatchJob {
  std::optional<ConjunctiveQuery> query;
  ViewSet views;
  std::string error;
};

/// Parses a job stream (the `--serve-batch` stdin format documented on
/// RunBatch below) into blocks.  Parse problems become per-job errors
/// rather than aborting the batch.  Shared with the rewrite service,
/// whose requests carry one block each — going through the same parser is
/// what makes a service response body byte-identical to the batch result
/// block for the same input, error wording included.
std::vector<BatchJob> ParseJobStream(std::istream& in);

/// Parses exactly one job block from `text` (same directives as the
/// stream form; `run`/`---`/blank-line separators are permitted but a
/// second non-empty block is an error).  Never returns an empty result:
/// problems, including "empty job", come back as BatchJob::error.
BatchJob ParseJobBlock(const std::string& text);

/// Renders one job's result block exactly as `--serve-batch` prints it.
std::string RenderJobResult(size_t index, const BatchJob& job,
                            const RewriteResult& result, bool echo);

/// Renders one job's error block ("job N: error: ...\n").
std::string RenderJobError(size_t index, const std::string& error);

/// Writes the batch footer: the outcome line, the cache line, the catalog
/// line, and — per `options` — the Phase-1 stats footer, the one-line JSON record
/// (schema_version kStatsJsonSchemaVersion), and the metrics dump.
/// Shared verbatim by RunBatch and the rewrite service's drain summary.
void WriteBatchFooter(std::ostream& out, const BatchSummary& summary,
                      const BatchOptions& options);

/// The batch service driver behind `cqacsh --serve-batch`: reads a stream
/// of rewriting jobs, executes them concurrently over a work-stealing
/// thread pool, and writes one result block per job to `out` — in input
/// order, whatever order the jobs finished in.  Every job is answered by
/// ViewCatalog::Rewrite through one CatalogRegistry, so each distinct
/// view set in the batch is compiled once and its semantic result cache
/// serves the batch's jobs.
///
/// Input format (line oriented; `%` or `#` starts a comment):
///
///   view <rule>     add a view to the current job
///   query <rule>    set the current job's query
///   run             dispatch the current job and start a new one
///   ---             same as run
///   <blank line>    same as run
///
/// A trailing job is dispatched at EOF.  Blocks with views but no query
/// are reported as errors; empty blocks (e.g. consecutive separators) are
/// ignored.
BatchSummary RunBatch(std::istream& in, std::ostream& out,
                      const BatchOptions& options = {});

}  // namespace cqac

#endif  // CQAC_RUNTIME_BATCH_DRIVER_H_

#include "runtime/batch_driver.h"

#include <condition_variable>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "catalog/view_catalog.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "rewriting/view_set.h"
#include "runtime/thread_pool.h"

namespace cqac {

namespace {

/// Splits off the first whitespace-delimited word.
std::pair<std::string, std::string> SplitCommand(const std::string& line) {
  const size_t start = line.find_first_not_of(" \t");
  if (start == std::string::npos) return {"", ""};
  const size_t end = line.find_first_of(" \t", start);
  if (end == std::string::npos) return {line.substr(start), ""};
  const size_t rest = line.find_first_not_of(" \t", end);
  return {line.substr(start, end - start),
          rest == std::string::npos ? "" : line.substr(rest)};
}

}  // namespace

void BatchSummary::SetCatalogStats(const CatalogRegistryStats& stats) {
  catalogs_built = stats.catalogs_built;
  catalog_semantic_hits = stats.semantic_hits;
  catalog_semantic_misses = stats.semantic_misses;
  catalog_epoch = stats.latest_epoch;
}

std::vector<BatchJob> ParseJobStream(std::istream& in) {
  std::vector<BatchJob> jobs;
  BatchJob current;
  bool current_nonempty = false;

  auto flush = [&] {
    if (!current_nonempty) return;
    if (!current.query.has_value() && current.error.empty()) {
      current.error = "job has views but no query";
    }
    jobs.push_back(std::move(current));
    current = BatchJob();
    current_nonempty = false;
  };

  std::string line;
  while (std::getline(in, line)) {
    auto [command, args] = SplitCommand(line);
    if (command.empty()) {  // Blank line separates jobs.
      flush();
      continue;
    }
    if (command[0] == '%' || command[0] == '#') continue;
    if (command == "run" || command == "---") {
      flush();
      continue;
    }
    if (!current.error.empty()) continue;  // Skip the rest of a bad block.
    if (command == "view") {
      std::string error;
      std::optional<ConjunctiveQuery> rule = Parser::ParseRule(args, &error);
      if (!rule.has_value()) {
        current.error = "bad view: " + error;
      } else if (current.views.Find(rule->name()) != nullptr) {
        current.error = "duplicate view '" + rule->name() + "'";
      } else {
        current.views.Add(*std::move(rule));
      }
      current_nonempty = true;
    } else if (command == "query") {
      std::string error;
      std::optional<ConjunctiveQuery> rule = Parser::ParseRule(args, &error);
      if (!rule.has_value()) {
        current.error = "bad query: " + error;
      } else if (!rule->IsSafe()) {
        current.error = "unsafe query";
      } else {
        current.query = *std::move(rule);
      }
      current_nonempty = true;
    } else {
      current.error = "unknown directive '" + command + "'";
      current_nonempty = true;
    }
  }
  flush();
  return jobs;
}

BatchJob ParseJobBlock(const std::string& text) {
  std::istringstream in(text);
  std::vector<BatchJob> jobs = ParseJobStream(in);
  if (jobs.empty()) {
    BatchJob job;
    job.error = "empty job";
    return job;
  }
  if (jobs.size() > 1) {
    BatchJob job;
    job.error = "request contains " + std::to_string(jobs.size()) +
                " jobs; send one job per request";
    return job;
  }
  return std::move(jobs.front());
}

std::string RenderJobResult(size_t index, const BatchJob& job,
                            const RewriteResult& result, bool echo) {
  std::ostringstream out;
  out << "job " << index << ": ";
  if (echo && job.query.has_value()) {
    out << "\n  query " << job.query->ToString() << "\n";
    for (const ConjunctiveQuery& v : job.views.views()) {
      out << "  view " << v.ToString() << "\n";
    }
    out << "  => ";
  }
  switch (result.outcome) {
    case RewriteOutcome::kRewritingFound:
      out << "equivalent rewriting (" << result.rewriting.size()
          << " disjunct" << (result.rewriting.size() == 1 ? "" : "s")
          << ")\n";
      for (const ConjunctiveQuery& d : result.rewriting.disjuncts()) {
        out << "  " << d.ToString() << "\n";
      }
      break;
    case RewriteOutcome::kNoRewriting:
      out << "no equivalent rewriting";
      if (!result.failure_reason.empty()) {
        out << " (" << result.failure_reason << ")";
      }
      out << "\n";
      break;
    case RewriteOutcome::kAborted:
      out << "aborted: " << result.failure_reason << "\n";
      break;
  }
  return out.str();
}

std::string RenderJobError(size_t index, const std::string& error) {
  return "job " + std::to_string(index) + ": error: " + error + "\n";
}

void WriteBatchFooter(std::ostream& out, const BatchSummary& summary,
                      const BatchOptions& options) {
  out << "batch: " << summary.jobs_total << " jobs, " << summary.found
      << " found, " << summary.none << " none, " << summary.aborted
      << " aborted, " << summary.deadline_exceeded << " deadline-exceeded, "
      << summary.rejected << " rejected, " << summary.errors << " errors\n";
  out << "catalog: " << summary.catalogs_built << " built, epoch "
      << summary.catalog_epoch << ", " << summary.catalog_semantic_hits
      << " semantic hits, " << summary.catalog_semantic_misses
      << " semantic misses\n";
  if (options.print_stats) {
    out << "phase-1: " << summary.rewrite.canonical_databases
        << " databases visited, "
        << summary.rewrite.canonical_databases -
               summary.rewrite.kept_canonical_databases
        << " pruned, " << summary.rewrite.phase1_memo_hits
        << " deduped (memo hits), " << summary.rewrite.phase1_memo_misses
        << " computed in full\n";
    out << "phase-times: enumeration " << summary.rewrite.enumeration_ns
        << " ns, freeze " << summary.rewrite.freeze_ns << " ns, phase1 "
        << summary.rewrite.phase1_ns << " ns, phase2 "
        << summary.rewrite.phase2_ns << " ns\n";
  }
  if (options.json_summary) {
    out << "{\"schema_version\": " << kStatsJsonSchemaVersion
        << ", \"jobs\": " << summary.jobs_total << ", \"found\": "
        << summary.found << ", \"none\": " << summary.none
        << ", \"aborted\": " << summary.aborted
        << ", \"deadline_exceeded\": " << summary.deadline_exceeded
        << ", \"rejected\": " << summary.rejected << ", \"errors\": "
        << summary.errors << ", \"canonical_databases\": "
        << summary.rewrite.canonical_databases
        << ", \"kept_canonical_databases\": "
        << summary.rewrite.kept_canonical_databases
        << ", \"phase1_memo_hits\": " << summary.rewrite.phase1_memo_hits
        << ", \"phase1_memo_misses\": " << summary.rewrite.phase1_memo_misses
        << ", \"enumeration_ns\": " << summary.rewrite.enumeration_ns
        << ", \"freeze_ns\": " << summary.rewrite.freeze_ns
        << ", \"phase1_ns\": " << summary.rewrite.phase1_ns
        << ", \"phase2_ns\": " << summary.rewrite.phase2_ns
        << ", \"catalogs_built\": " << summary.catalogs_built
        << ", \"catalog_semantic_hits\": " << summary.catalog_semantic_hits
        << ", \"catalog_semantic_misses\": "
        << summary.catalog_semantic_misses
        << ", \"catalog_epoch\": " << summary.catalog_epoch << "}\n";
  }
  if (options.print_metrics) {
    obs::MetricsRegistry::Global().DumpText(out);
  }
}

BatchSummary RunBatch(std::istream& in, std::ostream& out,
                      const BatchOptions& options) {
  BatchSummary summary;

  std::vector<BatchJob> jobs;
  {
    CQAC_TRACE_SPAN("batch.parse");
    jobs = ParseJobStream(in);
  }
  summary.jobs_total = static_cast<int64_t>(jobs.size());
  if (jobs.empty()) {
    out << "batch: 0 jobs\n";
    return summary;
  }

  // Each job runs its units inline on one worker; the catalog of its
  // view set carries plans, memos and finished answers across jobs, so
  // repeated or near-duplicate jobs get cheaper as the batch proceeds.
  RewriteOptions per_job = options.rewrite;
  per_job.jobs = 1;
  CatalogRegistry registry;
  ThreadPool pool(ThreadPool::ResolveJobs(options.jobs));

  std::vector<std::string> outputs(jobs.size());
  std::vector<RewriteOutcome> outcomes(jobs.size(),
                                       RewriteOutcome::kNoRewriting);
  std::vector<bool> job_errors(jobs.size(), false);
  std::vector<RewriteStats> job_stats(jobs.size());

  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;

  {
  CQAC_TRACE_SPAN("batch.dispatch");
  for (size_t i = 0; i < jobs.size(); ++i) {
    pool.Submit([&, i] {
      // Stamp each job with its own trace id so the flight recorder can
      // attribute worker spans per request, as the server does.
      const obs::RequestScope trace_scope(obs::GenerateTraceId());
      const BatchJob& job = jobs[i];
      std::string rendered;
      bool is_error = false;
      RewriteOutcome outcome = RewriteOutcome::kNoRewriting;
      RewriteStats stats;
      if (!job.error.empty()) {
        rendered = RenderJobError(i, job.error);
        is_error = true;
      } else {
        const RewriteResult result =
            registry.GetOrBuild(job.views)->Rewrite(*job.query, per_job);
        outcome = result.outcome;
        stats = result.stats;
        rendered = RenderJobResult(i, job, result, options.echo);
      }
      std::lock_guard<std::mutex> lock(mu);
      outputs[i] = std::move(rendered);
      outcomes[i] = outcome;
      job_errors[i] = is_error;
      job_stats[i] = stats;
      ++done;
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == jobs.size(); });
  }
  }  // batch.dispatch

  // Results print in input order regardless of completion order.
  for (size_t i = 0; i < jobs.size(); ++i) {
    out << outputs[i];
    if (job_errors[i]) {
      ++summary.errors;
    } else {
      switch (outcomes[i]) {
        case RewriteOutcome::kRewritingFound:
          ++summary.found;
          break;
        case RewriteOutcome::kNoRewriting:
          ++summary.none;
          break;
        case RewriteOutcome::kAborted:
          ++summary.aborted;
          break;
      }
    }
  }

  summary.SetCatalogStats(registry.Stats());
  for (const RewriteStats& s : job_stats) summary.rewrite.Merge(s);
  if (obs::MetricsActive()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.counter("batch.jobs").Add(summary.jobs_total);
    reg.gauge("threadpool.max_queue_depth").Max(pool.max_queue_depth());
    reg.counter("threadpool.tasks_stolen").Add(pool.tasks_stolen());
  }
  WriteBatchFooter(out, summary, options);
  return summary;
}

}  // namespace cqac

#include "runtime/batch_driver.h"

#include <istream>
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
    out << RenderPhaseLines(summary.rewrite);
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
  // view set carries compiled views and finished answers across jobs, so
  // repeated jobs get cheaper as the batch proceeds.
  RewriteOptions per_job = options.rewrite;
  per_job.jobs = 1;
  CatalogRegistry registry;
  ThreadPool pool(ThreadPool::ResolveJobs(options.jobs));

  // What job i left for the in-order merge.
  struct Answer {
    std::string rendered;
    bool is_error = false;
    RewriteOutcome outcome = RewriteOutcome::kNoRewriting;
    RewriteStats stats;
  };
  std::vector<Answer> answers(jobs.size());

  const auto run_job = [&](int64_t i) {
    // Stamp each job with its own trace id so the flight recorder can
    // attribute worker spans per request, as the server does.
    const obs::RequestScope trace_scope(obs::GenerateTraceId());
    const BatchJob& job = jobs[i];
    Answer& answer = answers[i];
    if (!job.error.empty()) {
      answer.rendered = RenderJobError(i, job.error);
      answer.is_error = true;
      return;
    }
    const RewriteResult result =
        registry.GetOrBuild(job.views)->Rewrite(*job.query, per_job);
    answer.outcome = result.outcome;
    answer.stats = result.stats;
    answer.rendered = RenderJobResult(i, job, result, options.echo);
  };
  // Results print in input order regardless of completion order.
  const auto merge_job = [&](int64_t i) {
    Answer answer = std::move(answers[i]);
    out << answer.rendered;
    if (answer.is_error) {
      ++summary.errors;
      return;
    }
    summary.rewrite.Merge(answer.stats);
    switch (answer.outcome) {
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
  };
  {
    CQAC_TRACE_SPAN("batch.dispatch");
    FanOut(&pool, summary.jobs_total, run_job, merge_job);
  }

  summary.SetCatalogStats(registry.Stats());
  if (obs::MetricsActive()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.counter("batch.jobs").Add(summary.jobs_total);
    reg.gauge("threadpool.max_queue_depth").Max(pool.max_queue_depth());
  }
  WriteBatchFooter(out, summary, options);
  return summary;
}

}  // namespace cqac

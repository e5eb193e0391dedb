// cqacsh: interactive shell over the cqac library.
//
//   $ ./build/tools/cqacsh
//   cqac> view v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z.
//   cqac> query q(A) :- r(A), s(A,A), A <= 8.
//   cqac> rewrite verify coalesce
//
// Also scriptable:  ./build/tools/cqacsh < session.cqac
//
// Batch service mode: `cqacsh --serve-batch [--jobs N]` reads a stream of
// jobs (blocks of `view`/`query` lines separated by `run`, `---`, or a
// blank line) and executes them concurrently over a work-stealing thread
// pool, each distinct view set compiled once into a shared ViewCatalog,
// printing results in input order.  See src/runtime/batch_driver.h for
// the format.
//
// Observability: `--trace out.json` records phase-level spans for the
// whole session and writes a Chrome trace-event file on exit (open it in
// chrome://tracing or Perfetto); `--metrics` collects runtime counters
// and dumps the registry on exit.  See docs/OBSERVABILITY.md.

#include <fstream>
#include <iostream>
#include <string>

#include <unistd.h>

#include "cli/shell.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/batch_driver.h"
#include "runtime/thread_pool.h"

namespace {

void PrintUsage(std::ostream& out) {
  out << "usage: cqacsh [--jobs N] [--serve-batch] [--stats] [--json]\n"
         "              [--trace FILE] [--metrics] [--help]\n"
         "  --jobs N       worker threads for rewriting (0 = all cores;\n"
         "                 default: all cores; 1 = serial; max 4096)\n"
         "  --serve-batch  read rewriting jobs from stdin and execute them\n"
         "                 concurrently, compiling each distinct view set\n"
         "                 once into a shared ViewCatalog whose semantic\n"
         "                 result cache persists across the batch's jobs;\n"
         "                 otherwise run the interactive\n"
         "                 shell (which uses a session catalog)\n"
         "  --stats        print the Phase-1 breakdown (databases visited /\n"
         "                 pruned / deduped) and the per-phase wall times\n"
         "                 after each rewrite; with --serve-batch,\n"
         "                 aggregated once per batch\n"
         "  --json         emit a one-line JSON record of outcome and all\n"
         "                 counters (including the Phase-1 memo hit/miss\n"
         "                 split) after each rewrite or batch\n"
         "  --trace FILE   record phase-level spans for the whole session\n"
         "                 and write a Chrome trace-event JSON file on exit\n"
         "                 (view in chrome://tracing or Perfetto)\n"
         "  --metrics      collect runtime metrics (memo hit rates, queue\n"
         "                 depths, wall-time histograms) and dump the\n"
         "                 registry on exit; the shell's `metrics` command\n"
         "                 dumps it on demand\n"
         "  --help         this message\n";
}

/// Writes the session's collected spans as Chrome trace-event JSON.
/// Returns false (after printing an error) when the file cannot be
/// written.
bool WriteTraceFile(const std::string& path) {
  const cqac::obs::CollectedTrace trace = cqac::obs::StopTracing();
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot write trace file '" << path << "'\n";
    return false;
  }
  cqac::obs::WriteChromeTrace(out, trace);
  if (!cqac::obs::TracingCompiledIn()) {
    std::cerr << "warning: this build has CQAC_TRACING=OFF; the trace is "
                 "empty\n";
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 0;  // 0 = hardware concurrency.
  bool serve_batch = false;
  bool print_stats = false;
  bool json_stats = false;
  bool metrics = false;
  std::string trace_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--serve-batch") {
      serve_batch = true;
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg == "--json") {
      json_stats = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--trace") {
      if (i + 1 >= argc) {
        std::cerr << "error: --trace needs a file path\n";
        return 1;
      }
      trace_path = argv[++i];
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
      if (trace_path.empty()) {
        std::cerr << "error: --trace needs a file path\n";
        return 1;
      }
    } else if (arg == "--jobs") {
      if (i + 1 >= argc) {
        std::cerr << "error: --jobs needs a value\n";
        return 1;
      }
      std::string error;
      if (!cqac::ThreadPool::ParseJobsFlag(argv[++i], &jobs, &error)) {
        std::cerr << "error: --jobs " << error << "\n";
        return 1;
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      std::string error;
      if (!cqac::ThreadPool::ParseJobsFlag(arg.substr(7), &jobs, &error)) {
        std::cerr << "error: --jobs " << error << "\n";
        return 1;
      }
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else {
      std::cerr << "error: unknown argument '" << arg << "'\n";
      PrintUsage(std::cerr);
      return 1;
    }
  }

  if (!trace_path.empty()) cqac::obs::StartTracing();
  if (metrics) cqac::obs::EnableMetrics(true);

  int status = 0;
  if (serve_batch) {
    cqac::BatchOptions options;
    options.jobs = jobs;
    options.print_stats = print_stats;
    options.json_summary = json_stats;
    options.print_metrics = metrics;
    const cqac::BatchSummary summary =
        cqac::RunBatch(std::cin, std::cout, options);
    status = summary.errors > 0 ? 1 : 0;
  } else {
    cqac::Shell shell(std::cout);
    shell.set_default_jobs(jobs);
    shell.set_print_stats(print_stats);
    shell.set_json_stats(json_stats);
    shell.ProcessStream(std::cin, /*interactive=*/isatty(STDIN_FILENO) != 0);
    if (metrics) cqac::obs::MetricsRegistry::Global().DumpText(std::cout);
  }

  if (!trace_path.empty() && !WriteTraceFile(trace_path) && status == 0) {
    status = 1;
  }
  return status;
}

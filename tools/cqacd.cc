// cqacd: the persistent rewrite service (docs/SERVICE.md).
//
//   $ ./build/tools/cqacd --unix /tmp/cqac.sock --jobs 4
//   cqacd: listening on unix:/tmp/cqac.sock
//
//   $ ./build/tools/cqacd --port 0        # ephemeral loopback TCP port
//   cqacd: listening on tcp:127.0.0.1:38651
//
// Clients (tools/cqacc, or anything speaking the length-prefixed frame
// protocol of src/server/protocol.h) submit rewriting jobs and receive
// one response frame per job, with a body byte-identical to the
// corresponding `cqacsh --serve-batch` result block.  All connections
// share one work-stealing thread pool and one registry of compiled view
// catalogs.
//
// SIGTERM or SIGINT triggers a graceful drain: stop accepting, finish
// in-flight jobs, deliver their responses, print the standard batch
// footer, exit 0.

#include <signal.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "runtime/batch_driver.h"
#include "runtime/thread_pool.h"
#include "server/server.h"

namespace {

void PrintUsage(std::ostream& out) {
  out << "usage: cqacd [--unix PATH] [--port N] [--jobs N]\n"
         "             [--max-inflight N] [--deadline-ms N] [--echo]\n"
         "             [--catalog] [--catalog-views FILE]\n"
         "             [--stats] [--json] [--metrics] [--trace FILE]\n"
         "             [--metrics-dump FILE] [--metrics-interval SEC]\n"
         "             [--slow-log FILE] [--help]\n"
         "  --unix PATH      listen on a Unix-domain socket at PATH\n"
         "  --port N         listen on 127.0.0.1:N (0 = pick an ephemeral\n"
         "                   port; the chosen port is printed on startup)\n"
         "  --jobs N         worker threads for rewriting (0 = all cores;\n"
         "                   default: all cores; max 4096)\n"
         "  --max-inflight N admission-control limit: requests beyond N\n"
         "                   in-flight jobs get `overloaded` responses\n"
         "                   (default 256)\n"
         "  --deadline-ms N  default per-request deadline for requests\n"
         "                   that do not set one (0 = none)\n"
         "  --echo           echo job definitions in result bodies by\n"
         "                   default (requests can override per job)\n"
         "  --catalog        accepted and ignored: every view set is always\n"
         "                   compiled once into a shared ViewCatalog whose\n"
         "                   semantic result cache persists across\n"
         "                   requests\n"
         "  --catalog-views FILE\n"
         "                   compile FILE (a block of `view` directives)\n"
         "                   as the default catalog at startup; query-only\n"
         "                   requests are served against it\n"
         "  --stats          include the Phase-1 breakdown in the exit\n"
         "                   footer\n"
         "  --json           include the one-line JSON summary record in\n"
         "                   the exit footer\n"
         "  --metrics        collect runtime metrics and dump the registry\n"
         "                   in the exit footer\n"
         "  --trace FILE     record phase-level spans and write a Chrome\n"
         "                   trace-event JSON file on exit\n"
         "  --metrics-dump FILE\n"
         "                   write the registry in Prometheus text format\n"
         "                   to FILE periodically (atomic rename) and on\n"
         "                   exit; a scraper can also use the get_metrics\n"
         "                   wire request instead\n"
         "  --metrics-interval SEC\n"
         "                   seconds between --metrics-dump writes\n"
         "                   (default 15)\n"
         "  --slow-log FILE  append the attribution header and flight-\n"
         "                   recorder excerpt of every deadline-exceeded\n"
         "                   or errored request to FILE as JSON lines\n"
         "                   (\"-\" = stderr)\n"
         "  --help           this message\n"
         "\n"
         "At least one of --unix and --port is required.  SIGTERM/SIGINT\n"
         "drain gracefully: in-flight jobs finish and deliver, then the\n"
         "batch footer is printed and cqacd exits 0.\n";
}

/// Parses a non-negative integer flag value; false on garbage.
bool ParseNonNegative(const std::string& text, int64_t* value) {
  if (text.empty()) return false;
  int64_t parsed = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    if (parsed > (INT64_MAX - (c - '0')) / 10) return false;
    parsed = parsed * 10 + (c - '0');
  }
  *value = parsed;
  return true;
}

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
  cqac::server::ServerOptions options;
  bool print_stats = false;
  bool json_summary = false;
  bool metrics = false;
  std::string trace_path;
  std::string metrics_dump_path;
  int64_t metrics_interval_sec = 15;

  auto next_value = [&](int* i, const char* flag) -> const char* {
    if (*i + 1 >= argc) {
      std::cerr << "error: " << flag << " needs a value\n";
      return nullptr;
    }
    return argv[++*i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    int64_t value = 0;
    if (arg == "--unix") {
      const char* v = next_value(&i, "--unix");
      if (v == nullptr) return 1;
      options.unix_socket_path = v;
    } else if (arg == "--port") {
      const char* v = next_value(&i, "--port");
      if (v == nullptr) return 1;
      if (!ParseNonNegative(v, &value) || value > 65535) {
        std::cerr << "error: --port needs a port number (0-65535), got '"
                  << v << "'\n";
        return 1;
      }
      options.tcp_port = static_cast<int>(value);
    } else if (arg == "--jobs") {
      const char* v = next_value(&i, "--jobs");
      if (v == nullptr) return 1;
      std::string error;
      if (!cqac::ThreadPool::ParseJobsFlag(v, &options.jobs, &error)) {
        std::cerr << "error: --jobs " << error << "\n";
        return 1;
      }
    } else if (arg == "--max-inflight") {
      const char* v = next_value(&i, "--max-inflight");
      if (v == nullptr) return 1;
      if (!ParseNonNegative(v, &value) || value < 1) {
        std::cerr << "error: --max-inflight needs a positive integer, got '"
                  << v << "'\n";
        return 1;
      }
      options.max_inflight = value;
    } else if (arg == "--deadline-ms") {
      const char* v = next_value(&i, "--deadline-ms");
      if (v == nullptr) return 1;
      if (!ParseNonNegative(v, &value)) {
        std::cerr << "error: --deadline-ms needs a non-negative integer, "
                     "got '"
                  << v << "'\n";
        return 1;
      }
      options.default_deadline_ms = value;
    } else if (arg == "--echo") {
      options.echo = true;
    } else if (arg == "--catalog") {
      // No-op: every job is served through the catalog.  Kept so existing
      // launch scripts keep working.
    } else if (arg == "--catalog-views") {
      const char* v = next_value(&i, "--catalog-views");
      if (v == nullptr) return 1;
      std::ifstream in(v);
      if (!in) {
        std::cerr << "error: cannot read catalog views file '" << v << "'\n";
        return 1;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      options.catalog_views_text = buffer.str();
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg == "--json") {
      json_summary = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--trace") {
      const char* v = next_value(&i, "--trace");
      if (v == nullptr) return 1;
      trace_path = v;
    } else if (arg == "--metrics-dump") {
      const char* v = next_value(&i, "--metrics-dump");
      if (v == nullptr) return 1;
      metrics_dump_path = v;
    } else if (arg == "--metrics-interval") {
      const char* v = next_value(&i, "--metrics-interval");
      if (v == nullptr) return 1;
      if (!ParseNonNegative(v, &value) || value < 1) {
        std::cerr << "error: --metrics-interval needs a positive integer, "
                     "got '"
                  << v << "'\n";
        return 1;
      }
      metrics_interval_sec = value;
    } else if (arg == "--slow-log") {
      const char* v = next_value(&i, "--slow-log");
      if (v == nullptr) return 1;
      options.slow_log_path = v;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else {
      std::cerr << "error: unknown argument '" << arg << "'\n";
      PrintUsage(std::cerr);
      return 1;
    }
  }

  if (options.unix_socket_path.empty() && options.tcp_port < 0) {
    std::cerr << "error: no listener: pass --unix PATH and/or --port N\n";
    return 1;
  }

  // Block the shutdown signals in every thread (the mask is inherited),
  // then sigwait for them on a dedicated thread: no async-signal-safety
  // contortions, just an ordinary call to BeginDrain.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  if (!trace_path.empty()) cqac::obs::StartTracing();
  // The registry is always on in the daemon so `get_metrics` and
  // --metrics-dump are never empty; --metrics keeps its old meaning of
  // also printing the registry in the exit footer.
  cqac::obs::EnableMetrics(true);

  cqac::server::Server server(options);
  std::string error;
  if (!server.Start(&error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }

  // Periodic Prometheus dump: write-then-rename so a scraper reading the
  // file never sees a torn render.
  std::mutex dump_mu;
  std::condition_variable dump_cv;
  bool dump_stop = false;
  auto dump_metrics = [&]() -> bool {
    const std::string tmp = metrics_dump_path + ".tmp";
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    cqac::obs::WritePrometheusText(out, cqac::obs::MetricsRegistry::Global());
    out.close();
    return out.good() && std::rename(tmp.c_str(),
                                     metrics_dump_path.c_str()) == 0;
  };
  std::thread dump_thread;
  if (!metrics_dump_path.empty()) {
    if (!dump_metrics()) {
      std::cerr << "error: cannot write metrics dump '" << metrics_dump_path
                << "'\n";
      server.BeginDrain();
      server.Wait();
      return 1;
    }
    dump_thread = std::thread([&] {
      std::unique_lock<std::mutex> lock(dump_mu);
      while (!dump_stop) {
        dump_cv.wait_for(lock, std::chrono::seconds(metrics_interval_sec));
        if (dump_stop) break;
        dump_metrics();
      }
    });
  }
  if (!options.unix_socket_path.empty()) {
    std::cout << "cqacd: listening on unix:" << options.unix_socket_path
              << "\n";
  }
  if (options.tcp_port >= 0) {
    std::cout << "cqacd: listening on tcp:127.0.0.1:" << server.tcp_port()
              << "\n";
  }
  std::cout.flush();

  std::thread signal_thread([&] {
    int sig = 0;
    sigwait(&sigs, &sig);
    std::cerr << "cqacd: received "
              << (sig == SIGTERM ? "SIGTERM" : "SIGINT") << ", draining\n";
    server.BeginDrain();
  });

  server.Wait();
  signal_thread.join();
  if (dump_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(dump_mu);
      dump_stop = true;
    }
    dump_cv.notify_all();
    dump_thread.join();
    dump_metrics();  // Final render reflecting the drained state.
  }

  cqac::BatchOptions footer;
  footer.print_stats = print_stats;
  footer.json_summary = json_summary;
  footer.print_metrics = metrics;
  cqac::WriteBatchFooter(std::cout, server.summary(), footer);
  std::cout.flush();

  if (!trace_path.empty() && !WriteTraceFile(trace_path)) return 1;
  return 0;
}

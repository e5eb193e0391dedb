#ifndef CQAC_BENCH_BENCH_COMMON_H_
#define CQAC_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "benchmark/benchmark.h"
#include "rewriting/equiv_rewriter.h"
#include "runtime/thread_pool.h"
#include "testing/alloc_hook.h"
#include "workload/generator.h"

namespace cqac_bench {

/// True when this translation unit was compiled without NDEBUG, i.e. with
/// assertions on.  Numbers from such a build are not comparable to the
/// checked-in results/ baselines, which are all Release.
#ifdef NDEBUG
inline constexpr bool kDebugBuild = false;
#else
inline constexpr bool kDebugBuild = true;
#endif

/// Worker threads for rewriter-driven benches, set by --jobs N.
/// 0 = hardware concurrency (the default), 1 = the driver's inline
/// schedule (every work unit on the calling thread).
inline int g_jobs = 0;

/// When non-empty (--json <path>), BenchMain writes a machine-readable
/// trajectory record there after the run.
inline std::string g_json_path;

/// Publishes heap allocations per iteration for the region `scope` has
/// been counting (typically the whole benchmark loop).  Every bench
/// binary carries the counting allocator from testing/alloc_hook.h via
/// this header; under sanitizer builds counting is unavailable and the
/// counter is omitted.  The value lands in the console table and, as
/// `allocs_per_iter`, in the --json trajectory record — the steady-state
/// claim a number like 0 makes is enforced separately by the
/// alloc_gate_test perfsmoke gate.
inline void RecordAllocsPerIter(benchmark::State& state,
                                const cqac::testing::AllocCounterScope& scope) {
  if (!cqac::testing::AllocCountingAvailable()) return;
  if (state.iterations() == 0) return;
  state.counters["allocs_per_iter"] =
      static_cast<double>(scope.delta()) /
      static_cast<double>(state.iterations());
}

/// Runs the paper's algorithm on `instances_per_point` deterministic
/// workload instances for this config and accumulates counters into the
/// benchmark state.  Returns the number of instances with a rewriting.
inline int RunRewriterPoint(benchmark::State& state,
                            cqac::WorkloadConfig config,
                            int instances_per_point = 3) {
  int found = 0;
  int64_t canonical = 0;
  int64_t kept = 0;
  int64_t mcds = 0;
  for (int i = 0; i < instances_per_point; ++i) {
    config.seed = 1000 + i;
    cqac::WorkloadGenerator generator(config);
    const cqac::WorkloadInstance instance = generator.Generate();
    cqac::RewriteOptions options;
    options.verify = false;
    options.jobs = g_jobs;
    const cqac::RewriteResult result =
        cqac::EquivalentRewriter(instance.query, instance.views, options).Run();
    if (result.outcome == cqac::RewriteOutcome::kRewritingFound) ++found;
    canonical += result.stats.canonical_databases;
    kept += result.stats.kept_canonical_databases;
    mcds += result.stats.mcds_formed;
    benchmark::DoNotOptimize(result);
  }
  state.counters["canonical_dbs"] = static_cast<double>(canonical);
  state.counters["kept_dbs"] = static_cast<double>(kept);
  state.counters["mcds"] = static_cast<double>(mcds);
  state.counters["found"] = static_cast<double>(found);
  return found;
}

/// Console reporter that additionally records each benchmark's mean real
/// time, for the --json trajectory record.  A manually constructed
/// ConsoleReporter defaults to forced color, which would smear ANSI
/// escapes into the results/*.txt snapshots — so only color on a tty.
class JsonTrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  JsonTrajectoryReporter()
      : benchmark::ConsoleReporter(isatty(fileno(stdout)) ? OO_ColorTabular
                                                          : OO_Tabular) {}

  struct Result {
    std::string name;
    double wall_ms = 0;
    bool has_allocs = false;
    double allocs_per_iter = 0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) {
        ++errors_;
        continue;
      }
      const double seconds =
          run.iterations > 0 ? run.real_accumulated_time / run.iterations
                             : run.real_accumulated_time;
      Result r;
      r.name = run.benchmark_name();
      r.wall_ms = seconds * 1e3;
      if (const auto it = run.counters.find("allocs_per_iter");
          it != run.counters.end()) {
        r.has_allocs = true;
        r.allocs_per_iter = it->second;
      }
      results_.push_back(std::move(r));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Result>& results() const { return results_; }

  /// Runs that called SkipWithError.
  int errors() const { return errors_; }

 private:
  std::vector<Result> results_;
  int errors_ = 0;
};

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// The commit the sources at CQAC_SOURCE_DIR are checked out at, or
/// "unknown" when git or the work tree is unavailable (e.g. a tarball
/// build).  Stamped into the --json record so a results/ trajectory file
/// can always be traced back to the code that produced it.
inline std::string GitCommit() {
#ifdef CQAC_SOURCE_DIR
  FILE* pipe = popen(
      "git -C \"" CQAC_SOURCE_DIR "\" rev-parse HEAD 2>/dev/null", "r");
  if (pipe != nullptr) {
    char buf[64] = {0};
    const size_t n = fread(buf, 1, sizeof(buf) - 1, pipe);
    pclose(pipe);
    std::string commit(buf, n);
    while (!commit.empty() &&
           (commit.back() == '\n' || commit.back() == '\r')) {
      commit.pop_back();
    }
    if (commit.size() == 40) return commit;
  }
#endif
  return "unknown";
}

/// The CMAKE_BUILD_TYPE the bench was compiled under, or "unknown" for
/// build systems that do not pass CQAC_BUILD_TYPE.
inline std::string BuildType() {
#ifdef CQAC_BUILD_TYPE
  return CQAC_BUILD_TYPE;
#else
  return "unknown";
#endif
}

/// Shared main of every bench_* binary: strips the repo's own flags
/// (--jobs N, --json <path>), hands the rest to Google Benchmark, and
/// writes the trajectory record when asked.  The JSON schema is {name,
/// git_commit, build_type, cpus, debug_build, wall_ms, jobs,
/// benchmarks[]} — one file per run, as the bench_*.json records under
/// results/.  Exits 1 when a run errored (SkipWithError), so a wrong
/// answer fails the binary.
inline int BenchMain(int argc, char** argv) {
  if (kDebugBuild) {
    std::fprintf(
        stderr,
        "========================================================\n"
        "WARNING: this benchmark was compiled WITHOUT NDEBUG.\n"
        "Assertions are on; timings are NOT comparable to the\n"
        "checked-in results/.  Rebuild with\n"
        "  cmake -DCMAKE_BUILD_TYPE=Release\n"
        "before recording numbers.\n"
        "========================================================\n");
  }
  std::string name = argc > 0 ? argv[0] : "bench";
  if (const size_t slash = name.find_last_of('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }

  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      g_jobs = std::atoi(argv[++i]);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      g_jobs = std::atoi(arg.c_str() + 7);
    } else if (arg == "--json" && i + 1 < argc) {
      g_json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      g_json_path = arg.c_str() + 7;
    } else {
      args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }

  JsonTrajectoryReporter reporter;
  const auto started = std::chrono::steady_clock::now();
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();

  if (!g_json_path.empty()) {
    std::ofstream json(g_json_path);
    json << "{\n"
         << "  \"name\": \"" << JsonEscape(name) << "\",\n"
         << "  \"git_commit\": \"" << JsonEscape(GitCommit()) << "\",\n"
         << "  \"build_type\": \"" << JsonEscape(BuildType()) << "\",\n"
         << "  \"cpus\": " << std::thread::hardware_concurrency() << ",\n"
         << "  \"debug_build\": " << (kDebugBuild ? "true" : "false") << ",\n"
         << "  \"wall_ms\": " << wall_ms << ",\n"
         << "  \"jobs\": " << cqac::ThreadPool::ResolveJobs(g_jobs) << ",\n"
         << "  \"benchmarks\": [";
    const auto& results = reporter.results();
    for (size_t i = 0; i < results.size(); ++i) {
      json << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
           << JsonEscape(results[i].name) << "\", \"wall_ms\": "
           << results[i].wall_ms;
      if (results[i].has_allocs) {
        json << ", \"allocs_per_iter\": " << results[i].allocs_per_iter;
      }
      json << "}";
    }
    json << "\n  ]\n}\n";
  }
  benchmark::Shutdown();
  return reporter.errors() > 0 ? 1 : 0;
}

}  // namespace cqac_bench

/// Drop-in replacement for BENCHMARK_MAIN() adding --jobs / --json.
#define CQAC_BENCH_MAIN()                                     \
  int main(int argc, char** argv) {                           \
    return cqac_bench::BenchMain(argc, argv);                 \
  }

#endif  // CQAC_BENCH_BENCH_COMMON_H_

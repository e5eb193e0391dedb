// cqac_perfbench: the repository's benchmark binary.
//
//   cqac_perfbench --workload fig4|chain|served --seed N --seconds S
//                  --trace 0|1 [--out-dir DIR] [--print-jobs] [--corrupt]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
// passes and reports the per-layer metrics.  The last line of standard
// output is one JSON object {correct, attempted, failed, metrics}; the
// line before it is the run's full record.  perfbench/README.md explains
// the workloads and every metric.

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "layers.h"
#include "rewriting/equiv_rewriter.h"
#include "runtime/batch_driver.h"
#include "served.h"
#include "spans.h"
#include "testing/alloc_hook.h"  // this TU only: replaces operator new
#include "testing/oracle.h"
#include "workloads.h"

namespace perfbench {

int64_t Allocations() { return cqac::testing::AllocCount(); }

namespace {

// --- small statistics --------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

/// Nearest-rank percentile of `sorted`.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// `wanted`, or the highest lower standard percentile that still leaves
/// at least ten samples beyond it.
double TailPercentile(size_t samples, double wanted) {
  static const double kSteps[] = {99.9, 99, 95, 90, 75, 50};
  for (const double p : kSteps) {
    if (p > wanted) continue;
    if (static_cast<double>(samples) * (1 - p / 100) >= 10) return p;
  }
  return 50;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

template <typename T>
std::string JsonList(const std::vector<T>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    if constexpr (std::is_floating_point_v<T>) {
      out += Num(values[i]);
    } else {
      out += std::to_string(values[i]);
    }
  }
  return out + "]";
}

double CpuSeconds() {
  rusage u = {};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set of this process so far, in MB (VmHWM).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Parallelism actually available: `threads` spinning copies of a fixed
/// loop against one copy, as a speed-up (1.0 = no parallelism).
double SpinParallelism(int threads) {
  auto spin = [](int n) {
    std::atomic<uint64_t> sink{0};
    const int64_t t0 = NowNs();
    std::vector<std::thread> pool;
    for (int i = 0; i < n; ++i) {
      pool.emplace_back([&sink, i] {
        uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(i);
        for (int k = 0; k < 20'000'000; ++k) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        sink += x;
      });
    }
    for (std::thread& t : pool) t.join();
    return static_cast<double>(NowNs() - t0);
  };
  std::vector<double> one, many;
  for (int r = 0; r < 3; ++r) {
    one.push_back(spin(1));
    many.push_back(spin(threads));
  }
  return threads * Median(one) / Median(many);
}

/// Pins the calling thread to the allowed CPU that runs a fixed spin loop
/// fastest right now, and returns that CPU.  The virtual CPUs of this
/// kind of host share physical cores with other guests, so one serial
/// thread runs up to ~1.6x slower on some of them than on others, and
/// which ones changes within minutes.
int PinToFastestCpu(const cpu_set_t& allowed) {
  int best = -1;
  int64_t best_ns = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    volatile uint64_t x = 0x9E3779B97F4A7C15ull;
    const int64_t t0 = NowNs();
    for (int k = 0; k < 3'000'000; ++k) {
      x = x ^ (x << 13);
      x = x ^ (x >> 7);
      x = x ^ (x << 17);
    }
    const int64_t ns = NowNs() - t0;
    if (best < 0 || ns < best_ns) {
      best = cpu;
      best_ns = ns;
    }
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  if (best >= 0) CPU_SET(best, &one);
  sched_setaffinity(0, sizeof(one), best >= 0 ? &one : &allowed);
  return best;
}

// --- arguments ---------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_build/perfbench/out";
  bool print_jobs = false;
  bool corrupt = false;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--print-jobs") {
      args->print_jobs = true;
    } else if (arg == "--corrupt") {
      args->corrupt = true;
    } else if ((v = value()) == nullptr) {
      *error = "missing value for " + arg;
      return false;
    } else if (arg == "--workload") {
      args->workload = v;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::atoi(v);
    } else if (arg == "--trace") {
      args->trace = std::atoi(v);
    } else if (arg == "--out-dir") {
      args->out_dir = v;
    } else {
      *error = "unknown argument " + arg;
      return false;
    }
  }
  if (!IsWorkloadName(args->workload)) {
    *error = "--workload must be fig4, chain or served";
    return false;
  }
  if (args->seconds < 1 || (args->trace != 0 && args->trace != 1)) {
    *error = "--seconds must be >= 1 and --trace 0 or 1";
    return false;
  }
  return true;
}

std::string SelfDir() {
  std::error_code ec;
  return std::filesystem::read_symlink("/proc/self/exe", ec).parent_path();
}

// --- set-up ------------------------------------------------------------

struct Bench {
  Args args;
  std::string cqacd;
  std::string socket_path;
  Workload workload;
  std::unique_ptr<ServerProcess> server;  // served, untraced
  cpu_set_t allowed_cpus;                 // the affinity the run started with
  std::vector<double> setup_s;            // every set-up's duration
};

/// One rewrite as a --serve-batch caller sees it: parse the job text,
/// run the rewriter, render the result block.
std::string OneShot(const Job& job, int index, int jobs,
                    cqac::RewriteResult* result_out, bool* failed) {
  const cqac::BatchJob parsed = cqac::ParseJobBlock(job.text);
  if (!parsed.error.empty()) {
    *failed = true;
    return cqac::RenderJobError(static_cast<size_t>(index), parsed.error);
  }
  cqac::RewriteOptions options;
  options.jobs = jobs;
  cqac::RewriteResult result =
      cqac::EquivalentRewriter(*parsed.query, parsed.views, options).Run();
  *failed = result.outcome == cqac::RewriteOutcome::kAborted;
  std::string body =
      cqac::RenderJobResult(static_cast<size_t>(index), parsed, result, false);
  if (result_out != nullptr) *result_out = std::move(result);
  return body;
}

bool StartServer(Bench* b, std::string* error) {
  b->server = std::make_unique<ServerProcess>();
  return b->server->Start(b->cqacd, b->socket_path, kServerJobs, error) &&
         WarmUp(b->socket_path, error);
}

/// Generates and parses the inputs, then warms up: the served workload
/// starts its server and makes one round trip; the others run the first
/// job once.  Records its duration in b->setup_s.
bool Setup(Bench* b, std::string* error) {
  if (b->server != nullptr) b->server->Stop();
  const int64_t s0 = NowNs();
  b->workload = MakeWorkload(b->args.workload, b->args.seed);
  if (!ParseJobs(&b->workload)) {
    *error = "a generated job does not parse";
    return false;
  }
  if (b->workload.served() && b->args.trace == 0) {
    if (!StartServer(b, error)) return false;
  } else {
    bool failed = false;
    OneShot(b->workload.jobs_list.front(), 0, b->workload.rewrite_jobs,
            nullptr, &failed);
    if (failed) {
      *error = "the warm-up rewrite failed";
      return false;
    }
  }
  b->setup_s.push_back(static_cast<double>(NowNs() - s0) * 1e-9);
  return true;
}

// --- checks ------------------------------------------------------------

struct Checks {
  int64_t mismatches = 0;  // outputs that differ from the one-shot answer
  int64_t oracle_checked = 0;
  int64_t oracle_unchecked = 0;
  int64_t oracle_failed = 0;
  int64_t keep_test_disagreements = 0;
  double oracle_s = 0;  // wall time of the oracle checks
  std::vector<std::string> notes;
};

/// One-shot serial answers for every job: the reference outputs.
struct Reference {
  std::vector<std::string> bodies;
  std::vector<cqac::RewriteResult> results;
  int64_t failed = 0;
};

Reference ComputeReference(const Workload& w) {
  Reference ref;
  for (size_t j = 0; j < w.jobs_list.size(); ++j) {
    cqac::RewriteResult result;
    bool failed = false;
    ref.bodies.push_back(
        OneShot(w.jobs_list[j], static_cast<int>(j), 1, &result, &failed));
    ref.results.push_back(std::move(result));
    ref.failed += failed ? 1 : 0;
  }
  return ref;
}

/// Checks found rewritings with the semantic oracle, smallest first.  The
/// oracle is brute force and some checks run for minutes, so they run in
/// a forked child that reports each verdict as it lands; whatever has not
/// landed when the time budget ends is killed and counted as unchecked,
/// like the checks the oracle itself cuts short.  With `corrupt`, the
/// first rewriting is damaged first (every comparison dropped), which the
/// oracle must catch.
void OracleChecks(const Workload& w, const Reference& ref, bool corrupt,
                  Checks* checks) {
  std::vector<size_t> order;
  for (size_t j = 0; j < w.jobs_list.size(); ++j) {
    if (w.jobs_list[j].fresh &&
        ref.results[j].outcome == cqac::RewriteOutcome::kRewritingFound) {
      order.push_back(j);
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return ref.results[a].rewriting.size() < ref.results[b].rewriting.size();
  });
  int fds[2];
  if (order.empty() || pipe(fds) != 0) return;
  std::cout.flush();
  const int64_t t0 = NowNs();
  const pid_t child = fork();
  if (child == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    close(fds[0]);
    cqac::testing::OracleOptions options;
    options.max_orders = 60000;
    options.max_order_terms = 7;
    options.random_databases = 8;
    options.exhaustive_max_facts = 1;
    options.max_exhaustive_databases = 500;
    for (size_t n = 0; n < order.size(); ++n) {
      const size_t j = order[n];
      cqac::UnionQuery rewriting = ref.results[j].rewriting;
      if (corrupt && n == 0) {
        for (cqac::ConjunctiveQuery& d : rewriting.mutable_disjuncts()) {
          d.mutable_comparisons().clear();
        }
      }
      const cqac::BatchJob& job = w.jobs_list[j].parsed;
      const cqac::testing::OracleVerdict verdict =
          cqac::testing::CheckRewritingWithOracle(
              cqac::testing::FuzzCase{*job.query, job.views}, rewriting,
              options);
      std::string line = std::to_string(j) + (verdict.ok ? " ok" : " bad") +
                         (verdict.checked ? " checked " : " unchecked ") +
                         verdict.failure.substr(0, 200);
      std::replace(line.begin(), line.end(), '\n', ' ');
      line += '\n';
      if (write(fds[1], line.data(), line.size()) < 0) break;
    }
    _exit(0);
  }
  close(fds[1]);
  std::string lines;
  size_t reported = 0;
  char buf[4096];
  const int64_t budget_end = t0 + 3'000'000'000;
  bool eof = false;
  while (!eof && child > 0 && NowNs() < budget_end) {
    pollfd pfd = {fds[0], POLLIN, 0};
    const int wait_ms = static_cast<int>((budget_end - NowNs()) / 1'000'000);
    if (poll(&pfd, 1, std::max(1, wait_ms)) <= 0) continue;
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n <= 0) {
      eof = true;
    } else {
      lines.append(buf, static_cast<size_t>(n));
    }
  }
  close(fds[0]);
  if (child > 0) {
    if (!eof) kill(child, SIGKILL);
    waitpid(child, nullptr, 0);
  }
  std::istringstream in(lines);
  std::string line;
  while (std::getline(in, line)) {
    ++reported;
    std::istringstream fields(line);
    std::string job, ok, checked;
    fields >> job >> ok >> checked;
    if (ok != "ok") {
      ++checks->oracle_failed;
      checks->notes.push_back(
          "oracle rejects job " + job +
          (corrupt && reported == 1 ? " (deliberately corrupted)" : "") + ":" +
          line.substr(std::min(line.size(), job.size() + ok.size() +
                                                checked.size() + 2)));
    } else if (checked == "checked") {
      ++checks->oracle_checked;
    } else {
      ++checks->oracle_unchecked;
    }
  }
  checks->oracle_unchecked += static_cast<int64_t>(order.size() - reported);
  checks->oracle_s = static_cast<double>(NowNs() - t0) * 1e-9;
}

/// Counts outputs that differ from the one-shot answer; the first one is
/// written next to the record as `mismatch_path`.
void CompareBodies(const std::vector<std::string>& got,
                   const std::vector<int>& job_of, const Reference& ref,
                   const char* what, const std::string& mismatch_path,
                   Checks* checks) {
  for (size_t k = 0; k < got.size(); ++k) {
    const std::string& want = ref.bodies[static_cast<size_t>(job_of[k])];
    if (got[k] == want || checks->mismatches++ > 0) continue;
    checks->notes.push_back(std::string(what) + " differs from the " +
                            "one-shot answer on job " +
                            std::to_string(job_of[k]) + "; see " +
                            mismatch_path);
    std::ofstream(mismatch_path) << "--- got\n" << got[k] << "--- want\n"
                                 << want;
  }
}

std::vector<int> RewriteJobs(const Workload& w) {
  std::vector<int> out;
  for (const Request& r : w.stream) {
    if (!r.set_catalog) out.push_back(r.job);
  }
  return out;
}

// --- output ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

// --- the untraced run --------------------------------------------------

struct Timed {
  std::vector<double> pass_wall_s;
  std::vector<double> pass_rps;    // rewrites per second of each pass
  std::vector<double> pass_cpu_s;  // user+sys CPU of each pass
  std::vector<std::vector<double>> pass_latency_ms;  // per request, by pass
  std::vector<double> latency_ms;  // of the faster half of the passes
  double peak_rss_mb = 0;
  double timed_s = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t unstable = 0;  // answers that differ from the first pass's
  std::vector<int> pinned_cpus;  // the CPU chosen at each re-pick
  std::string error;
  std::vector<std::string> bodies;  // the first pass's answers
  std::vector<int> job_of;          // job index of each answer
};

Timed RunUntraced(Bench* b) {
  Timed t;
  const Workload& w = b->workload;
  t.job_of = RewriteJobs(w);
  // Later passes must repeat the first pass's answers exactly.
  auto keep_or_compare = [&t](std::vector<std::string> bodies) {
    if (t.bodies.empty()) {
      t.bodies = std::move(bodies);
      return;
    }
    for (size_t k = 0; k < bodies.size(); ++k) {
      t.unstable += bodies[k] != t.bodies[k] ? 1 : 0;
    }
  };
  // The serial workload runs on the fastest CPU, chosen again after every
  // second of timed work, so that its figures follow the program rather than
  // the CPU the scheduler happened to pick.  Multi-threaded workloads and
  // the server run unpinned.
  const bool pin = IsSerialWorkload(w.name);
  double next_pick_s = 0;
  double next_setup_s = 2;
  std::vector<double> server_rss_mb;
  while (t.timed_s < b->args.seconds) {
    if (pin && t.timed_s >= next_pick_s) {
      t.pinned_cpus.push_back(PinToFastestCpu(b->allowed_cpus));
      next_pick_s = t.timed_s + 1;
    }
    // Set-up again between passes, so that its repetitions spread over
    // the run like the passes do.  The served workload needs a fresh
    // server for every pass anyway.
    if (b->server == nullptr ? t.timed_s >= next_setup_s
                             : !b->server->running()) {
      std::string error;
      if (!Setup(b, &error)) {
        t.error = error;
        break;
      }
      next_setup_s = t.timed_s + 2;
    }
    if (w.served()) {
      const double cpu0 = CpuSeconds();
      SocketPass pass = RunSocketPass(w, b->socket_path, kServerJobs);
      const double client_cpu = CpuSeconds() - cpu0;
      int64_t rss_kb = 0;
      t.pass_cpu_s.push_back(client_cpu + b->server->Stop(&rss_kb));
      server_rss_mb.push_back(static_cast<double>(rss_kb) / 1024.0);
      if (!pass.error.empty()) {
        t.error = pass.error;
        break;
      }
      t.pass_wall_s.push_back(pass.wall_s);
      t.pass_rps.push_back(Ratio(pass.attempted, pass.wall_s));
      t.timed_s += pass.wall_s;
      t.pass_latency_ms.emplace_back();
      for (const int64_t ns : pass.latency_ns) {
        t.pass_latency_ms.back().push_back(static_cast<double>(ns) * 1e-6);
      }
      t.attempted += pass.attempted;
      t.failed += pass.failed;
      keep_or_compare(std::move(pass.bodies));
      continue;
    }
    std::vector<std::string> bodies;
    t.pass_latency_ms.emplace_back();
    const double cpu0 = CpuSeconds();
    const int64_t p0 = NowNs();
    for (const int j : t.job_of) {
      const int64_t r0 = NowNs();
      bool failed = false;
      bodies.push_back(OneShot(w.jobs_list[static_cast<size_t>(j)], j,
                               w.rewrite_jobs, nullptr, &failed));
      t.pass_latency_ms.back().push_back(static_cast<double>(NowNs() - r0) *
                                         1e-6);
      ++t.attempted;
      t.failed += failed ? 1 : 0;
    }
    const double wall = static_cast<double>(NowNs() - p0) * 1e-9;
    t.pass_cpu_s.push_back(CpuSeconds() - cpu0);
    t.pass_wall_s.push_back(wall);
    t.pass_rps.push_back(Ratio(static_cast<double>(t.job_of.size()), wall));
    t.timed_s += wall;
    keep_or_compare(std::move(bodies));
  }
  sched_setaffinity(0, sizeof(b->allowed_cpus), &b->allowed_cpus);
  // Latencies come from the faster half of the passes: other guests on
  // the host only ever slow a pass down, and slowed passes would make the
  // percentiles follow the host instead of the program.
  std::vector<size_t> by_speed(t.pass_wall_s.size());
  std::iota(by_speed.begin(), by_speed.end(), 0);
  std::sort(by_speed.begin(), by_speed.end(), [&t](size_t x, size_t y) {
    return t.pass_wall_s[x] < t.pass_wall_s[y];
  });
  by_speed.resize((by_speed.size() + 1) / 2);
  for (const size_t pass : by_speed) {
    const std::vector<double>& l = t.pass_latency_ms[pass];
    t.latency_ms.insert(t.latency_ms.end(), l.begin(), l.end());
  }
  std::sort(t.latency_ms.begin(), t.latency_ms.end());
  // The served workload's memory is the server's: the median of its
  // per-pass peaks (each pass runs a fresh server).
  t.peak_rss_mb = w.served() ? Median(server_rss_mb) : PeakRssMb();
  return t;
}

// --- the traced run ----------------------------------------------------

struct Traced {
  std::map<std::string, std::vector<double>> samples;  // per cycle, by name
  std::map<std::string, std::string> units;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string error;
  std::vector<std::string> replay_bodies, socket_bodies;
  std::vector<int> replay_jobs;
  std::map<std::string, double> split;  // layer -> share of traced wall
};

Traced RunTraced(Bench* b, SpanRecorder* spans, Checks* checks) {
  Traced t;
  const Workload& w = b->workload;
  std::vector<int> algorithm_jobs;  // the cold rewrites: fresh requests
  for (size_t j = 0; j < w.jobs_list.size(); ++j) {
    if (w.jobs_list[j].fresh) algorithm_jobs.push_back(static_cast<int>(j));
  }
  const std::vector<int> stream_jobs = RewriteJobs(w);
  static const char* kLayers[] = {
      "rewriting.prepare", "constraints.orders", "rewriting.phase1",
      "rewriting.expand",  "rewriting.simplify", "containment.canonical",
      "rewriting.finalize"};
  auto put = [&t](const std::string& name, double value, const char* unit) {
    t.samples[name].push_back(value);
    t.units[name] = unit;
  };
  double elapsed = 0;
  std::map<std::string, std::vector<double>> shares;
  while (elapsed < b->args.seconds) {
    const int64_t cycle0 = NowNs();
    // A: the traced reconstruction.
    const size_t mark = spans->size();
    LayerCounts counts;
    std::vector<std::string> traced_bodies;
    int64_t a0 = NowNs();
    for (const int j : algorithm_jobs) {
      const cqac::BatchJob& job = w.jobs_list[static_cast<size_t>(j)].parsed;
      const cqac::RewriteResult result =
          TracedRewrite(*job.query, job.views, spans, j, &counts);
      traced_bodies.push_back(
          cqac::RenderJobResult(static_cast<size_t>(j), job, result, false));
    }
    const double traced_ns = static_cast<double>(NowNs() - a0);
    const SelfTimes self = spans->SelfTimesSince(mark);
    double units = 0;
    for (const char* layer : kLayers) {
      const double ns = self.ns.count(layer) ? self.ns.at(layer) : 0;
      units += ns;
      put(std::string(layer) + ".ns", ns, "ns");
      shares[layer].push_back(Ratio(ns, self.root_ns));
    }
    // B: the keep test alone over the same canonical databases.
    KeepTestTotals keep;
    for (const int j : algorithm_jobs) {
      const cqac::BatchJob& job = w.jobs_list[static_cast<size_t>(j)].parsed;
      const KeepTestTotals k = KeepTestPass(*job.query, job.views);
      keep.ns += k.ns;
      keep.calls += k.calls;
      keep.kept += k.kept;
    }
    if (keep.kept != counts.phase1_kept && counts.phase1_calls == keep.calls) {
      ++checks->keep_test_disagreements;
    }
    // C: the same rewrites untraced and serial; D: at the workload's jobs.
    auto untraced_ns = [&](int jobs) {
      const int64_t c0 = NowNs();
      for (size_t n = 0; n < algorithm_jobs.size(); ++n) {
        const int j = algorithm_jobs[n];
        bool failed = false;
        const std::string body = OneShot(w.jobs_list[static_cast<size_t>(j)],
                                         j, jobs, nullptr, &failed);
        ++t.attempted;
        t.failed += failed ? 1 : 0;
        if (body != traced_bodies[n] && checks->mismatches++ == 0) {
          checks->notes.push_back("traced reconstruction differs from "
                                  "EquivalentRewriter::Run on job " +
                                  std::to_string(j));
        }
      }
      return static_cast<double>(NowNs() - c0);
    };
    const double serial_ns = untraced_ns(1);
    const double driver_ns =
        w.rewrite_jobs == 1 ? serial_ns : untraced_ns(w.rewrite_jobs);
    // E: the stream through ViewCatalog::Rewrite and the protocol, in
    // process.  F: the same stream over the socket.
    const CatalogReplay replay = ReplayThroughCatalog(w);
    ServerProcess server;
    std::string error;
    if (!server.Start(b->cqacd, b->socket_path, kServerJobs, &error) ||
        !WarmUp(b->socket_path, &error)) {
      t.error = error;
      break;
    }
    const SocketPass pass = RunSocketPass(w, b->socket_path, kServerJobs);
    server.Stop();
    if (!pass.error.empty()) {
      t.error = pass.error;
      break;
    }
    t.attempted += pass.attempted + static_cast<int64_t>(replay.bodies.size());
    t.failed += pass.failed;
    if (t.replay_bodies.empty()) {
      t.replay_bodies = replay.bodies;
      t.socket_bodies = pass.bodies;
      t.replay_jobs = stream_jobs;
    }
    const double round_trips = std::accumulate(
        pass.latency_ns.begin(), pass.latency_ns.end(), 0.0);

    put("constraints.orders.count", counts.orders, "count");
    put("rewriting.phase1.calls", counts.phase1_calls, "count");
    put("rewriting.phase1.kept", counts.phase1_kept, "count");
    put("rewriting.phase1.memo_hit_ratio",
        Ratio(counts.phase1_memo_hits,
              counts.phase1_memo_hits + counts.phase1_memo_misses),
        "ratio");
    put("rewriting.phase1.allocs", counts.phase1_allocs, "count");
    put("engine.keep_test.ns", keep.ns, "ns");
    put("engine.keep_test.calls", keep.calls, "count");
    put("rewriting.expand.atoms_out", counts.expand_atoms_out, "count");
    put("rewriting.simplify.atoms_out", counts.simplify_atoms_out, "count");
    put("rewriting.simplify.vars_out", counts.simplify_vars_out, "count");
    put("rewriting.simplify.allocs", counts.simplify_allocs, "count");
    put("containment.canonical.calls", counts.containment_calls, "count");
    put("containment.canonical.orders", counts.containment_orders, "count");
    put("containment.canonical.allocs", counts.containment_allocs, "count");
    put("runtime.driver.ns", w.rewrite_jobs * driver_ns - units, "ns");
    put("runtime.parallel_efficiency",
        Ratio(units, w.rewrite_jobs * driver_ns),
        "ratio");
    put("catalog.rewrite.ns", replay.rewrite_ns, "ns");
    put("catalog.build.ns", replay.build_ns, "ns");
    put("catalog.semantic.hit_ratio",
        Ratio(replay.semantic_hits, replay.semantic_hits + replay.semantic_misses),
        "ratio");
    put("catalog.plan.hit_ratio",
        Ratio(replay.plan_hits, replay.plan_hits + replay.plans_built), "ratio");
    put("catalog.containment_memo.hit_ratio",
        Ratio(replay.memo_hits, replay.memo_hits + replay.memo_misses), "ratio");
    put("server.parse.ns", replay.parse_ns, "ns");
    put("server.render.ns", replay.render_ns, "ns");
    put("server.frame.ns", replay.frame_ns, "ns");
    put("server.overhead.ns", round_trips - replay.request_ns, "ns");
    put("trace.overhead_ratio", Ratio(traced_ns, serial_ns), "ratio");
    put("trace.coverage", Ratio(units, self.root_ns), "ratio");
    elapsed += static_cast<double>(NowNs() - cycle0) * 1e-9;
  }
  for (const auto& [layer, v] : shares) t.split[layer] = Median(v);
  return t;
}

}  // namespace

int Main(int argc, char** argv) {
  Bench b;
  std::string error;
  if (!ParseArgs(argc, argv, &b.args, &error)) {
    std::cerr << "cqac_perfbench: " << error << "\n";
    return 2;
  }
  if (b.args.print_jobs) {
    std::cout << JobStreamText(MakeWorkload(b.args.workload, b.args.seed));
    return 0;
  }
  std::filesystem::create_directories(b.args.out_dir);
  b.cqacd = SelfDir() + "/cqacd";
  b.socket_path = b.args.out_dir + "/cqacd-" + std::to_string(getpid()) + ".sock";
  const std::string tag = b.args.workload + "-seed" + std::to_string(b.args.seed);
  const std::string mismatch_path = b.args.out_dir + "/mismatch-" + tag + ".txt";

  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const double parallelism = SpinParallelism(std::max(1, nproc));

  // Set-up five times before timing (the last one is kept); the timed run
  // sets up again between passes.  The serial workload sets up on the CPU
  // it will be timed on.
  sched_getaffinity(0, sizeof(b.allowed_cpus), &b.allowed_cpus);
  if (b.args.trace == 0 && IsSerialWorkload(b.args.workload)) {
    PinToFastestCpu(b.allowed_cpus);
  }
  for (int i = 0; i < 5; ++i) {
    if (!Setup(&b, &error)) {
      std::cerr << "cqac_perfbench: set-up failed: " << error << "\n";
      return 1;
    }
  }

  Checks checks;
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string record;
  SpanRecorder spans;
  std::string run_error;
  if (b.args.trace == 0) {
    Timed t = RunUntraced(&b);
    run_error = t.error;
    const double tail_p =
        TailPercentile(t.latency_ms.size(), b.workload.tail_percentile);
    metrics = {
        {"setup_s", Min(b.setup_s), "s"},
        {"wall_s", Min(t.pass_wall_s), "s"},
        {"throughput_rps", Max(t.pass_rps), "1/s"},
        {"latency_p50_ms", Percentile(t.latency_ms, 50), "ms"},
        {"latency_tail_ms", Percentile(t.latency_ms, tail_p), "ms"},
        {"cpu_s", Min(t.pass_cpu_s), "s"},
        {"peak_rss_mb", t.peak_rss_mb, "MB"},
    };
    attempted = t.attempted;
    failed = t.failed;
    const Reference ref = ComputeReference(b.workload);
    CompareBodies(t.bodies, t.job_of, ref, "a timed answer", mismatch_path,
                  &checks);
    if (t.unstable > 0) {
      checks.mismatches += t.unstable;
      checks.notes.push_back("answers changed between passes");
    }
    OracleChecks(b.workload, ref, b.args.corrupt, &checks);
    failed += ref.failed;
    std::vector<double> walls = t.pass_wall_s;
    std::sort(walls.begin(), walls.end());
    const std::vector<double> quartiles = {
        Percentile(walls, 25), Percentile(walls, 50), Percentile(walls, 75)};
    record += "\"passes\": " + std::to_string(walls.size()) +
              ", \"pass_wall_s_quartiles\": " + JsonList(quartiles) +
              ", \"pass_wall_s\": " + JsonList(t.pass_wall_s) +
              ", \"tail_percentile\": " + Num(tail_p) +
              ", \"latency_samples\": " + std::to_string(t.latency_ms.size()) +
              ", \"samples_beyond_tail\": " +
              std::to_string(static_cast<int64_t>(
                  t.latency_ms.size() * (1 - tail_p / 100))) +
              ", \"setup_samples_s\": " + JsonList(b.setup_s) +
              ", \"pinned_cpus\": " + JsonList(t.pinned_cpus);
  } else {
    Traced t = RunTraced(&b, &spans, &checks);
    run_error = t.error;
    attempted = t.attempted;
    failed = t.failed;
    const Reference ref = ComputeReference(b.workload);
    CompareBodies(t.replay_bodies, t.replay_jobs, ref, "the catalog replay",
                  mismatch_path, &checks);
    CompareBodies(t.socket_bodies, t.replay_jobs, ref, "a served answer",
                  mismatch_path, &checks);
    OracleChecks(b.workload, ref, b.args.corrupt, &checks);
    failed += ref.failed;
    // Times and ratios: the median over cycles.  Counts: the smallest,
    // which leaves out one-time work of the first cycle (static set-up,
    // allocator growth) so allocation counts repeat exactly.
    for (const auto& [name, values] : t.samples) {
      const bool count = t.units[name] == "count";
      metrics.push_back(
          {name, count ? Min(values) : Median(values), t.units[name]});
    }
    record += "\"cycles\": " +
              std::to_string(t.samples.empty()
                                 ? 0
                                 : t.samples.begin()->second.size()) +
              ", \"layer_split\": {";
    bool first = true;
    for (const auto& [layer, share] : t.split) {
      record += (first ? "\"" : ", \"") + layer + "\": " + Num(share);
      first = false;
    }
    const std::string spans_path = b.args.out_dir + "/spans-" + tag + ".jsonl";
    spans.WriteJsonLines(spans_path);
    record += "}, \"spans\": \"" + spans_path + "\"";
  }
  failed += checks.mismatches + checks.oracle_failed +
            checks.keep_test_disagreements;
  if (!run_error.empty()) {
    ++failed;
    checks.notes.push_back("run error: " + run_error);
  }
  if (b.args.trace == 1) {
    metrics.push_back({"failed_frac", Ratio(failed, std::max<int64_t>(1, attempted)),
                       "ratio"});
    std::sort(metrics.begin(), metrics.end(),
              [](const Metric& x, const Metric& y) { return x.name < y.name; });
  }
  const bool correct = failed == 0;

  std::string notes;
  for (size_t i = 0; i < checks.notes.size(); ++i) {
    std::string escaped;
    for (const char c : checks.notes[i]) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += (c == '\n' ? ' ' : c);
    }
    notes += (i ? ", \"" : "\"") + escaped + "\"";
  }
  const std::string full_record =
      "{\"record\": {\"workload\": \"" + b.args.workload +
      "\", \"seed\": " + std::to_string(b.args.seed) +
      ", \"trace\": " + std::to_string(b.args.trace) +
      ", \"seconds\": " + std::to_string(b.args.seconds) +
      ", \"build_type\": \"" CQAC_PERFBENCH_BUILD_TYPE "\", \"nproc\": " +
      std::to_string(nproc) + ", \"spin_parallelism\": " + Num(parallelism) +
      ", \"rewrite_jobs\": " + std::to_string(b.workload.rewrite_jobs) + ", " + record +
      ", \"checks\": {\"mismatches\": " + std::to_string(checks.mismatches) +
      ", \"oracle_checked\": " + std::to_string(checks.oracle_checked) +
      ", \"oracle_unchecked\": " + std::to_string(checks.oracle_unchecked) +
      ", \"oracle_failed\": " + std::to_string(checks.oracle_failed) +
      ", \"oracle_s\": " + Num(checks.oracle_s) +
      ", \"keep_test_disagreements\": " +
      std::to_string(checks.keep_test_disagreements) + ", \"notes\": [" +
      notes + "]}, \"metrics\": " + MetricsJson(metrics) + "}}";
  std::ofstream(b.args.out_dir + "/record-" + tag + "-trace" +
                std::to_string(b.args.trace) + ".json")
      << full_record << "\n";
  std::cout << full_record << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<int64_t>(1, attempted)
            << ", \"failed\": " << failed
            << ", \"metrics\": " << MetricsJson(metrics) << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

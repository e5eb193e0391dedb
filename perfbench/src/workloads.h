#ifndef CQAC_PERFBENCH_WORKLOADS_H_
#define CQAC_PERFBENCH_WORKLOADS_H_

// The benchmark's three workloads, generated from a seed.
//
// Each workload is a fixed set of instance *structures* (WorkloadGenerator
// instances at fixed generator seeds, or fixed chain templates); the
// benchmark seed draws everything that does not change the algorithm's
// work: variable, predicate and view names, the constant values (an
// order-preserving remap), the order of views, and the names of the
// alpha-renamed repeats.  That keeps a run's cost the same from seed to
// seed while the program under test never sees the same text twice.

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/batch_driver.h"

namespace perfbench {

/// One request's job: its text in the --serve-batch job format
/// (docs/SYNTAX.md) and the parse of that text.
struct Job {
  std::string text;       // `view ...` lines (fig4, chain) + `query ...`
  cqac::BatchJob parsed;  // ParseJobBlock(text), filled by ParseJobs
  int view_set = -1;      // served: catalog view set the query runs on
  bool fresh = true;      // served: false for an alpha-renamed repeat
};

/// One entry of the request stream.
struct Request {
  bool set_catalog = false;  // swap the default catalog to `view_set`
  int view_set = -1;
  int job = -1;              // index into Workload::jobs_list otherwise
};

/// Worker threads of every cqacd the benchmark starts, and the number of
/// client connections sending to it.
inline constexpr int kServerJobs = 2;

struct Workload {
  std::string name;
  uint64_t seed = 0;

  /// RewriteOptions::jobs of every rewrite (the served workload's server
  /// forces 1 and runs kServerJobs requests at a time instead).
  int rewrite_jobs = 1;

  /// The latency percentile reported as latency_tail_ms: the highest one
  /// with at least ten samples beyond it at this workload's request rate.
  double tail_percentile = 90;

  std::vector<Job> jobs_list;
  /// served: the two catalog view sets, as blocks of `view` lines.
  std::vector<std::string> view_sets;
  /// fig4, chain: one request per job; served: rounds of a set_catalog
  /// swap followed by rewrites.
  std::vector<Request> stream;

  /// True for the served workload (requests go to cqacd).
  bool served() const { return !view_sets.empty(); }
};

/// Builds workload `name` ("fig4", "chain" or "served") for `seed`.  The
/// jobs' `parsed` fields are left empty; see ParseJobs.
Workload MakeWorkload(const std::string& name, uint64_t seed);

/// True when `name` is a workload MakeWorkload knows.
bool IsWorkloadName(const std::string& name);

/// True for the workload whose one caller runs every rewrite with jobs=1
/// in process (fig4): a single thread the benchmark may pin to one CPU.
bool IsSerialWorkload(const std::string& name);

/// Parses every job's text (the program-under-test parse path).
/// False when any job fails to parse.
bool ParseJobs(Workload* workload);

/// The request stream in the --serve-batch job format: one block per
/// rewrite, with the view set inlined for served requests and the
/// catalog swaps as comments.  Feeding it to `cqacsh --serve-batch`
/// reproduces every rewrite of the workload.
std::string JobStreamText(const Workload& workload);

/// The job text of a served request as sent on the wire (query only; the
/// server supplies the catalog's views).
std::string WireJobText(const Workload& workload, const Job& job);

}  // namespace perfbench

#endif  // CQAC_PERFBENCH_WORKLOADS_H_

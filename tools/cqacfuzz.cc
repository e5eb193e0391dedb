// cqacfuzz: the differential / metamorphic / oracle fuzzer for the
// equivalent-rewriting algorithm.
//
// Per generated (or corpus) case it
//   1. runs every configuration-lattice point (serial vs parallel, Phase-1
//      memo on/off, pruned vs legacy order enumeration, verify,
//      catalog-served) and diffs the invariant signatures;
//   2. checks any found rewriting against the brute-force semantic oracle
//      (canonical, random, and exhaustive small databases);
//   3. applies a random metamorphic mutation and asserts its declared
//      effect, then puts the mutant through 1-2 as a fresh input.
// Failures are greedily shrunk and written as ready-to-paste corpus files.
//
//   cqacfuzz --minutes 5 --seed 1..4 --corpus tests/corpus --out repros
//   cqacfuzz --iterations 100 --seed 7 --lattice smoke
//   cqacfuzz --inject-fault memo --iterations 50   # must exit 1
//
// Exit status: 0 when every check passed, 1 when a finding was written,
// 2 on usage errors.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "runtime/memo_cache.h"
#include "runtime/thread_pool.h"
#include "testing/corpus.h"
#include "testing/differential.h"
#include "testing/mutators.h"
#include "testing/oracle.h"
#include "testing/shrinker.h"
#include "workload/generator.h"

namespace cqac {
namespace testing {
namespace {

struct FuzzFlags {
  uint64_t seed_lo = 1;
  uint64_t seed_hi = 1;
  int64_t iterations = 0;  // per seed; 0 = default (25) unless time-boxed
  double seconds = 0;      // wall-clock budget; 0 = none
  std::string corpus_dir;
  std::string out_dir = "cqacfuzz-out";
  std::string lattice = "full";
  std::string inject_fault = "none";
  int jobs = 4;            // thread count of the parallel lattice points
  int dump_workloads = 0;  // corpus-seeding mode: emit N cases and exit
  bool verbose = false;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: cqacfuzz [options]\n"
      "  --seed N | A..B     seed or inclusive seed range (default 1)\n"
      "  --iterations N      iterations per seed (default 25, or until the\n"
      "                      time budget when one is set)\n"
      "  --minutes M         wall-clock budget in minutes\n"
      "  --seconds S         wall-clock budget in seconds\n"
      "  --corpus DIR        replay every *.cqac under DIR first\n"
      "  --out DIR           where shrunken repros go (default cqacfuzz-out)\n"
      "  --lattice full|smoke  configuration lattice to sweep (default full)\n"
      "  --jobs N            threads for the parallel lattice points\n"
      "                      (default 4, 0 = all cores, max 4096)\n"
      "  --inject-fault none|memo  deliberately break the Phase-1 memo\n"
      "                      (4-bit memo keys); the fuzzer must then\n"
      "                      find and shrink a divergence\n"
      "  --dump-workloads N  print N generated cases as corpus files to\n"
      "                      --out and exit (corpus seeding helper)\n"
      "  --verbose           per-case progress\n");
}

bool ParseSeedRange(const std::string& s, uint64_t* lo, uint64_t* hi) {
  const size_t dots = s.find("..");
  try {
    if (dots == std::string::npos) {
      *lo = *hi = std::stoull(s);
    } else {
      *lo = std::stoull(s.substr(0, dots));
      *hi = std::stoull(s.substr(dots + 2));
    }
  } catch (...) {
    return false;
  }
  return *lo <= *hi;
}

std::optional<FuzzFlags> ParseFlags(int argc, char** argv) {
  FuzzFlags flags;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--seed") {
      if ((v = value(i)) == nullptr ||
          !ParseSeedRange(v, &flags.seed_lo, &flags.seed_hi)) {
        return std::nullopt;
      }
    } else if (arg == "--iterations") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      flags.iterations = std::atoll(v);
    } else if (arg == "--minutes") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      flags.seconds = std::atof(v) * 60;
    } else if (arg == "--seconds") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      flags.seconds = std::atof(v);
    } else if (arg == "--corpus") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      flags.corpus_dir = v;
    } else if (arg == "--out") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      flags.out_dir = v;
    } else if (arg == "--lattice") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      flags.lattice = v;
      if (flags.lattice != "full" && flags.lattice != "smoke") {
        return std::nullopt;
      }
    } else if (arg == "--jobs") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      std::string error;
      if (!ThreadPool::ParseJobsFlag(v, &flags.jobs, &error)) {
        std::fprintf(stderr, "cqacfuzz: --jobs %s\n", error.c_str());
        return std::nullopt;
      }
    } else if (arg == "--inject-fault") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      flags.inject_fault = v;
      if (flags.inject_fault != "none" && flags.inject_fault != "memo") {
        return std::nullopt;
      }
    } else if (arg == "--dump-workloads") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      flags.dump_workloads = std::atoi(v);
    } else if (arg == "--verbose") {
      flags.verbose = true;
    } else {
      std::fprintf(stderr, "cqacfuzz: unknown flag '%s'\n", arg.c_str());
      return std::nullopt;
    }
  }
  return flags;
}

struct Finding {
  std::string kind;     // "lattice", "oracle", "metamorphic"
  std::string detail;   // what diverged / the counterexample
  FuzzCase c;           // the failing case (mutant for metamorphic)
  bool shrinkable = true;
};

class Fuzzer {
 public:
  explicit Fuzzer(const FuzzFlags& flags)
      : flags_(flags), lattice_(flags.lattice == "smoke"
                                    ? SmokeConfigLattice()
                                    : FullConfigLattice()) {
    for (LatticeConfig& config : lattice_) {
      if (config.jobs > 1) config.jobs = flags_.jobs;
    }
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(flags_.seconds));
  }

  bool TimeUp() const {
    return flags_.seconds > 0 && std::chrono::steady_clock::now() >= deadline_;
  }

  /// Lattice sweep + oracle on one case.  Returns the finding, if any,
  /// and the baseline result for the metamorphic stage.
  std::optional<Finding> CheckCase(const FuzzCase& c,
                                   RewriteResult* baseline_out) {
    DifferentialReport report = RunConfigLattice(c, lattice_);
    if (baseline_out != nullptr) *baseline_out = report.baseline_result;
    if (!report.ok) {
      Finding f;
      f.kind = "lattice";
      f.detail = "config [" + report.divergent_config + "]: " + report.failure;
      f.c = c;
      return f;
    }
    if (report.baseline_result.outcome == RewriteOutcome::kRewritingFound) {
      const OracleVerdict verdict = CheckRewritingWithOracle(
          c, report.baseline_result.rewriting, oracle_options_);
      oracle_orders_ += verdict.orders_checked;
      oracle_databases_ += verdict.databases_checked;
      if (!verdict.ok) {
        Finding f;
        f.kind = "oracle";
        f.detail = "rewriting " +
                   report.baseline_result.rewriting.ToString() +
                   "\nis NOT equivalent to the query: " + verdict.failure;
        f.c = c;
        return f;
      }
      if (!verdict.checked) ++oracle_partial_;
    }
    return std::nullopt;
  }

  /// The shrinker's failure predicate: does the case still fail the
  /// lattice sweep or the oracle?
  bool FailsAnyCheck(const FuzzCase& c) {
    return CheckCase(c, nullptr).has_value();
  }

  void ReportFinding(Finding f, const std::string& origin) {
    ++findings_;
    std::string note = f.kind + " finding (from " + origin + ")";
    FuzzCase shrunk = f.c;
    if (f.shrinkable && FailsAnyCheck(f.c)) {
      const ShrinkResult result =
          ShrinkFailingCase(f.c, [this](const FuzzCase& candidate) {
            return FailsAnyCheck(candidate);
          });
      shrunk = result.c;
      note += "; shrunk to " +
              std::to_string(shrunk.query.body().size()) +
              " query subgoals, " + std::to_string(shrunk.views.size()) +
              " views in " + std::to_string(result.evaluations) +
              " evaluations";
    } else {
      note += "; not shrunk (failure needs its original context)";
    }
    std::error_code ec;
    std::filesystem::create_directories(flags_.out_dir, ec);
    const std::string path = flags_.out_dir + "/finding-" +
                             std::to_string(findings_) + ".cqac";
    std::ofstream out(path);
    out << RegressionText(shrunk, note + "\n" + f.detail);
    std::fprintf(stderr, "cqacfuzz: FAIL %s\n%s\n  repro: %s\n", note.c_str(),
                 f.detail.c_str(), path.c_str());
  }

  /// One full iteration on a case: lattice + oracle, then a mutation with
  /// its declared-effect assertion, then lattice + oracle on the mutant.
  void RunCase(const FuzzCase& c, std::mt19937_64& meta,
               const std::string& origin) {
    ++cases_;
    RewriteResult baseline;
    if (std::optional<Finding> f = CheckCase(c, &baseline)) {
      ReportFinding(std::move(*f), origin);
      return;
    }
    std::optional<Mutation> m = ApplyRandomMutation(c, meta);
    if (!m.has_value()) return;
    ++cases_;
    RewriteResult mutant_baseline;
    if (std::optional<Finding> f = CheckCase(m->c, &mutant_baseline)) {
      ReportFinding(std::move(*f), origin + " + " + m->name);
      return;
    }
    std::string why;
    if (!MutationEffectHolds(m->effect, SignatureOf(baseline),
                             SignatureOf(mutant_baseline), &why)) {
      Finding f;
      f.kind = "metamorphic";
      f.detail = "mutation '" + m->name + "' (declared " +
                 MutationEffectName(m->effect) + ") violated its effect: " +
                 why + "\noriginal case:\n" + SerializeCase(c);
      f.c = m->c;
      // The mutant passed the lattice and oracle on its own; the failure
      // only exists relative to the original, which dropping subgoals
      // would destroy.
      f.shrinkable = false;
      ReportFinding(std::move(f), origin + " + " + m->name);
    }
  }

  int Run() {
    if (flags_.inject_fault == "memo") {
      // Key every memo entry on a 4-bit hash of its key: unrelated
      // canonical databases share entries, the memo serves wrong
      // conclusions, and the phase1_dedup lattice points must diverge
      // from the rest.
      internal::SetPhase1MemoKeyCollisionsForTest(true);
      std::fprintf(stderr,
                   "cqacfuzz: fault injected (4-bit Phase-1 memo keys); "
                   "expecting findings\n");
    }

    if (!flags_.corpus_dir.empty()) {
      std::string error;
      std::optional<std::vector<CorpusEntry>> corpus =
          LoadCorpusDir(flags_.corpus_dir, &error);
      if (!corpus.has_value()) {
        std::fprintf(stderr, "cqacfuzz: %s\n", error.c_str());
        return 2;
      }
      std::mt19937_64 meta(flags_.seed_lo);
      for (const CorpusEntry& entry : *corpus) {
        if (TimeUp()) break;
        if (flags_.verbose) {
          std::fprintf(stderr, "cqacfuzz: corpus %s\n", entry.name.c_str());
        }
        RunCase(entry.c, meta, "corpus:" + entry.name);
      }
    }

    const int64_t per_seed_iterations =
        flags_.iterations > 0 ? flags_.iterations
                              : (flags_.seconds > 0 ? INT64_MAX : 25);
    // One generator stream per seed, interleaved round-robin so a time
    // budget spreads evenly over the seed range.
    const size_t num_seeds =
        static_cast<size_t>(flags_.seed_hi - flags_.seed_lo + 1);
    std::vector<std::mt19937_64> metas;
    metas.reserve(num_seeds);
    for (uint64_t s = flags_.seed_lo; s <= flags_.seed_hi; ++s) {
      metas.emplace_back(s);
    }
    for (int64_t iter = 0; iter < per_seed_iterations && !TimeUp(); ++iter) {
      for (size_t i = 0; i < num_seeds && !TimeUp(); ++i) {
        const WorkloadConfig config = DrawFuzzConfig(metas[i]);
        WorkloadGenerator generator(config);
        const WorkloadInstance instance = generator.Generate();
        const std::string origin = "seed " +
                                   std::to_string(flags_.seed_lo + i) +
                                   " iter " + std::to_string(iter);
        if (flags_.verbose) {
          std::fprintf(stderr, "cqacfuzz: %s\n", origin.c_str());
        }
        RunCase(FuzzCase{instance.query, instance.views}, metas[i], origin);
      }
    }

    std::fprintf(stderr,
                 "cqacfuzz: %lld cases, %lld lattice points/case, "
                 "%lld oracle orders, %lld oracle databases, "
                 "%lld partially-checked, %lld findings\n",
                 static_cast<long long>(cases_),
                 static_cast<long long>(lattice_.size()),
                 static_cast<long long>(oracle_orders_),
                 static_cast<long long>(oracle_databases_),
                 static_cast<long long>(oracle_partial_),
                 static_cast<long long>(findings_));
    return findings_ == 0 ? 0 : 1;
  }

  int DumpWorkloads() {
    std::error_code ec;
    std::filesystem::create_directories(flags_.out_dir, ec);
    std::mt19937_64 meta(flags_.seed_lo);
    for (int i = 0; i < flags_.dump_workloads; ++i) {
      const WorkloadConfig config = DrawFuzzConfig(meta);
      WorkloadGenerator generator(config);
      const WorkloadInstance instance = generator.Generate();
      char name[64];
      std::snprintf(name, sizeof(name), "generated_%02d.cqac", i);
      std::ofstream out(flags_.out_dir + "/" + name);
      out << SerializeCase(
          FuzzCase{instance.query, instance.views},
          "generated: cqacfuzz --dump-workloads, seed " +
              std::to_string(flags_.seed_lo) + ", case " + std::to_string(i));
    }
    std::fprintf(stderr, "cqacfuzz: wrote %d cases to %s\n",
                 flags_.dump_workloads, flags_.out_dir.c_str());
    return 0;
  }

 private:
  FuzzFlags flags_;
  std::vector<LatticeConfig> lattice_;
  std::chrono::steady_clock::time_point deadline_;
  OracleOptions oracle_options_;
  int64_t cases_ = 0;
  int64_t findings_ = 0;
  int64_t oracle_orders_ = 0;
  int64_t oracle_databases_ = 0;
  int64_t oracle_partial_ = 0;
};

int Main(int argc, char** argv) {
  std::optional<FuzzFlags> flags = ParseFlags(argc, argv);
  if (!flags.has_value()) {
    Usage();
    return 2;
  }
  Fuzzer fuzzer(*flags);
  if (flags->dump_workloads > 0) return fuzzer.DumpWorkloads();
  return fuzzer.Run();
}

}  // namespace
}  // namespace testing
}  // namespace cqac

int main(int argc, char** argv) { return cqac::testing::Main(argc, argv); }

#ifndef CQAC_TESTING_DIFFERENTIAL_H_
#define CQAC_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "rewriting/equiv_rewriter.h"
#include "testing/corpus.h"
#include "workload/generator.h"

namespace cqac {
namespace testing {

/// One point of the configuration lattice: a choice of scheduler,
/// Phase-1 memoization, enumeration engine, and serving path.  Every point
/// must produce the same answer; the differential driver proves it per
/// input.
struct LatticeConfig {
  /// RewriteOptions::jobs — 1 runs the driver's units inline, anything
  /// else fans them out over a thread pool.
  int jobs = 1;

  /// RewriteOptions::phase1_dedup — the per-subtree Phase-1 memo; off is
  /// the lattice's no-memo reference.
  bool phase1_dedup = true;

  /// Route ForEachSatisfyingOrder through the legacy
  /// enumerate-then-filter reference (internal::ForceSatisfyingOrderFallbackForTest).
  bool legacy_orders = false;

  /// RewriteOptions::verify — found rewritings are independently
  /// re-checked; the driver requires verified == true whenever this is on.
  bool verify = false;

  /// Serve the case through a freshly built ViewCatalog
  /// (catalog/view_catalog.h), running it twice so the second run replays
  /// from the semantic cache.  Both runs are diffed against the baseline,
  /// proving the catalog-served computation and its cached replay are
  /// byte-identical to a fresh run.
  bool use_catalog = false;

  /// E.g. "jobs=4 dedup legacy-orders".
  std::string Name() const;

  /// The RewriteOptions this point runs under.
  RewriteOptions ToOptions() const;
};

/// The full lattice the fuzzer sweeps (9 points): serial vs parallel,
/// Phase-1 memo on/off, pruned vs legacy order enumeration, one-shot vs
/// catalog-served — plus one verify-enabled point as a semantic anchor.
/// (Not the full cube: the legacy enumeration is toggled against both
/// schedulers, which covers every pairwise interaction it can have with
/// the drivers.)
std::vector<LatticeConfig> FullConfigLattice();

/// The cheap subset for time-boxed smoke runs and corpus replay: serial
/// baseline, jobs 2 and 4, no-dedup, legacy orders, verify, catalog.
std::vector<LatticeConfig> SmokeConfigLattice();

/// The configuration-invariant projection of a RewriteResult.  Fields
/// excluded on purpose: stats.phase1_memo_hits/misses (the very thing
/// phase1_dedup toggles), the wall times, and trace (explain-only).
/// Everything here must be byte-identical across the lattice.
struct RunSignature {
  RewriteOutcome outcome = RewriteOutcome::kNoRewriting;
  std::string rewriting;  // UnionQuery::ToString(), "" when not found
  std::string failure_reason;
  int64_t canonical_databases = 0;
  int64_t kept_canonical_databases = 0;
  int64_t v0_variants = 0;
  int64_t mcds_formed = 0;
  int64_t mcds_kept_total = 0;
  int64_t view_tuples_total = 0;
  int64_t phase2_checks = 0;
  int64_t phase2_orders = 0;

  bool operator==(const RunSignature& other) const;
  bool operator!=(const RunSignature& other) const {
    return !(*this == other);
  }

  /// Multi-line rendering for failure reports.
  std::string ToString() const;
};

/// Projects a result onto its invariant signature.
RunSignature SignatureOf(const RewriteResult& result);

/// RAII application of a config's engine-selection hook (legacy order
/// enumeration).  Restores the previous flag on destruction.  The hook is
/// a process-global relaxed atomic, so no
/// rewriting run may be in flight on another thread while a selection is
/// alive — the differential driver runs lattice points strictly one at a
/// time for exactly this reason (the `jobs` parallelism inside one run is
/// fine: the flags are constant for its duration).
class ScopedEngineSelection {
 public:
  explicit ScopedEngineSelection(const LatticeConfig& config);
  ~ScopedEngineSelection();

  ScopedEngineSelection(const ScopedEngineSelection&) = delete;
  ScopedEngineSelection& operator=(const ScopedEngineSelection&) = delete;

 private:
  bool saved_orders_;
};

/// Runs one lattice point on one case; for a catalog point, returns the
/// semantic-cache replay.
RewriteResult RunWithConfig(const FuzzCase& c, const LatticeConfig& config);

/// The verdict of a lattice sweep on one case.
struct DifferentialReport {
  bool ok = true;

  /// The signature every point must match (from the first config, the
  /// serial baseline).
  RunSignature baseline;
  RewriteResult baseline_result;

  /// Filled when ok is false: which config diverged and how.  A catalog
  /// point names its run: "<config> (cold)" or "<config> (replay)".
  std::string divergent_config;
  std::string failure;
};

/// Runs every config on `c` and diffs the invariant signatures of all
/// its runs against the first config's.  Also fails when a verify-enabled config reports a
/// found rewriting with verified == false.  Stops at the first
/// divergence.
DifferentialReport RunConfigLattice(const FuzzCase& c,
                                    const std::vector<LatticeConfig>& lattice);

/// The workload parameters of cqacfuzz's next generated case, drawn from
/// `meta`.  The guard `variables + constants <= 7` keeps the oracle's
/// order enumeration (and the rewriter's own Phase 1) within budget — 7
/// terms is under 50k orders.
WorkloadConfig DrawFuzzConfig(std::mt19937_64& meta);

}  // namespace testing
}  // namespace cqac

#endif  // CQAC_TESTING_DIFFERENTIAL_H_

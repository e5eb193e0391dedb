#include "testing/differential.h"

#include <sstream>

#include "catalog/view_catalog.h"
#include "containment/homomorphism.h"

namespace cqac {
namespace testing {

std::string LatticeConfig::Name() const {
  std::ostringstream out;
  out << "jobs=" << jobs;
  if (phase1_dedup) out << " dedup";
  if (legacy_orders) out << " legacy-orders";
  if (legacy_homomorphism) out << " legacy-homomorphism";
  if (verify) out << " verify";
  if (use_catalog) out << " catalog";
  return out.str();
}

RewriteOptions LatticeConfig::ToOptions() const {
  RewriteOptions options;
  options.jobs = jobs;
  options.phase1_dedup = phase1_dedup;
  options.verify = verify;
  return options;
}

std::vector<LatticeConfig> FullConfigLattice() {
  std::vector<LatticeConfig> lattice;
  // Serial baseline first: every other point diffs against it.
  lattice.push_back(LatticeConfig{});
  for (const int jobs : {1, 4}) {
    for (const bool dedup : {true, false}) {
      LatticeConfig c;
      c.jobs = jobs;
      c.phase1_dedup = dedup;
      if (jobs == 1 && dedup) continue;  // the baseline again
      lattice.push_back(c);
    }
    // Engine toggles, one at a time, under both schedulers.
    LatticeConfig orders;
    orders.jobs = jobs;
    orders.legacy_orders = true;
    lattice.push_back(orders);
    LatticeConfig hom;
    hom.jobs = jobs;
    hom.legacy_homomorphism = true;
    lattice.push_back(hom);
  }
  LatticeConfig both_legacy;  // the two legacy engines interacting
  both_legacy.legacy_orders = true;
  both_legacy.legacy_homomorphism = true;
  lattice.push_back(both_legacy);
  LatticeConfig verify;  // semantic anchor
  verify.verify = true;
  lattice.push_back(verify);
  LatticeConfig catalog;  // catalog-served, replayed from the semantic cache
  catalog.use_catalog = true;
  lattice.push_back(catalog);
  LatticeConfig catalog_parallel;  // catalog-served, parallel driver
  catalog_parallel.use_catalog = true;
  catalog_parallel.jobs = 4;
  lattice.push_back(catalog_parallel);
  return lattice;
}

std::vector<LatticeConfig> SmokeConfigLattice() {
  std::vector<LatticeConfig> lattice;
  lattice.push_back(LatticeConfig{});  // serial baseline
  LatticeConfig parallel;
  parallel.jobs = 4;
  lattice.push_back(parallel);
  LatticeConfig no_dedup;
  no_dedup.phase1_dedup = false;
  lattice.push_back(no_dedup);
  LatticeConfig legacy;
  legacy.legacy_orders = true;
  legacy.legacy_homomorphism = true;
  lattice.push_back(legacy);
  LatticeConfig verify;
  verify.verify = true;
  lattice.push_back(verify);
  LatticeConfig catalog;
  catalog.use_catalog = true;
  lattice.push_back(catalog);
  return lattice;
}

bool RunSignature::operator==(const RunSignature& other) const {
  return outcome == other.outcome && rewriting == other.rewriting &&
         failure_reason == other.failure_reason &&
         canonical_databases == other.canonical_databases &&
         kept_canonical_databases == other.kept_canonical_databases &&
         v0_variants == other.v0_variants &&
         mcds_formed == other.mcds_formed &&
         mcds_kept_total == other.mcds_kept_total &&
         view_tuples_total == other.view_tuples_total &&
         phase2_checks == other.phase2_checks &&
         phase2_orders == other.phase2_orders;
}

std::string RunSignature::ToString() const {
  std::ostringstream out;
  out << "outcome=";
  switch (outcome) {
    case RewriteOutcome::kRewritingFound:
      out << "found";
      break;
    case RewriteOutcome::kNoRewriting:
      out << "none";
      break;
    case RewriteOutcome::kAborted:
      out << "aborted";
      break;
  }
  out << "\nrewriting=" << rewriting;
  out << "\nfailure_reason=" << failure_reason;
  out << "\ncanonical_databases=" << canonical_databases;
  out << "\nkept_canonical_databases=" << kept_canonical_databases;
  out << "\nv0_variants=" << v0_variants;
  out << "\nmcds_formed=" << mcds_formed;
  out << "\nmcds_kept_total=" << mcds_kept_total;
  out << "\nview_tuples_total=" << view_tuples_total;
  out << "\nphase2_checks=" << phase2_checks;
  out << "\nphase2_orders=" << phase2_orders;
  return out.str();
}

RunSignature SignatureOf(const RewriteResult& result) {
  RunSignature sig;
  sig.outcome = result.outcome;
  if (result.outcome == RewriteOutcome::kRewritingFound) {
    sig.rewriting = result.rewriting.ToString();
  }
  sig.failure_reason = result.failure_reason;
  sig.canonical_databases = result.stats.canonical_databases;
  sig.kept_canonical_databases = result.stats.kept_canonical_databases;
  sig.v0_variants = result.stats.v0_variants;
  sig.mcds_formed = result.stats.mcds_formed;
  sig.mcds_kept_total = result.stats.mcds_kept_total;
  sig.view_tuples_total = result.stats.view_tuples_total;
  sig.phase2_checks = result.stats.phase2_checks;
  sig.phase2_orders = result.stats.phase2_orders;
  return sig;
}

ScopedEngineSelection::ScopedEngineSelection(const LatticeConfig& config)
    : saved_orders_(internal::SatisfyingOrderFallbackForcedForTest()),
      saved_homomorphism_(internal::LegacyContainmentMappingForcedForTest()) {
  internal::ForceSatisfyingOrderFallbackForTest(config.legacy_orders);
  internal::ForceLegacyContainmentMappingForTest(config.legacy_homomorphism);
}

ScopedEngineSelection::~ScopedEngineSelection() {
  internal::ForceSatisfyingOrderFallbackForTest(saved_orders_);
  internal::ForceLegacyContainmentMappingForTest(saved_homomorphism_);
}

namespace {

/// One run a lattice point makes, named for the divergence report.
struct NamedRun {
  std::string name;
  RewriteResult result;
};

/// The runs of one lattice point: a single one-shot run, or for a catalog
/// point the cold run through a fresh catalog followed by its replay
/// from the semantic cache.
std::vector<NamedRun> RunsOf(const FuzzCase& c, const LatticeConfig& config) {
  ScopedEngineSelection selection(config);
  std::vector<NamedRun> runs;
  if (!config.use_catalog) {
    runs.push_back(
        {config.Name(),
         EquivalentRewriter(c.query, c.views, config.ToOptions()).Run()});
    return runs;
  }
  ViewCatalog catalog(c.views);
  runs.push_back({config.Name() + " (cold)",
                  catalog.Rewrite(c.query, config.ToOptions())});
  runs.push_back({config.Name() + " (replay)",
                  catalog.Rewrite(c.query, config.ToOptions())});
  return runs;
}

}  // namespace

RewriteResult RunWithConfig(const FuzzCase& c, const LatticeConfig& config) {
  return std::move(RunsOf(c, config).back().result);
}

DifferentialReport RunConfigLattice(
    const FuzzCase& c, const std::vector<LatticeConfig>& lattice) {
  DifferentialReport report;
  bool have_baseline = false;
  for (const LatticeConfig& config : lattice) {
    for (NamedRun& run : RunsOf(c, config)) {
      const RewriteResult& result = run.result;
      if (config.verify &&
          result.outcome == RewriteOutcome::kRewritingFound &&
          !result.verified) {
        report.ok = false;
        report.divergent_config = run.name;
        report.failure =
            "verify-enabled config found a rewriting that failed its own "
            "verification:\n" +
            result.rewriting.ToString();
        return report;
      }
      const RunSignature sig = SignatureOf(result);
      if (!have_baseline) {
        have_baseline = true;
        report.baseline = sig;
        report.baseline_result = std::move(run.result);
        continue;
      }
      if (sig != report.baseline) {
        report.ok = false;
        report.divergent_config = run.name;
        report.failure =
            "signature diverges from serial baseline\n--- baseline\n" +
            report.baseline.ToString() + "\n--- " + run.name + "\n" +
            sig.ToString();
        return report;
      }
    }
  }
  return report;
}

}  // namespace testing
}  // namespace cqac

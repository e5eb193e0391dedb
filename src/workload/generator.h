#ifndef CQAC_WORKLOAD_GENERATOR_H_
#define CQAC_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "ast/query.h"
#include "rewriting/view_set.h"

namespace cqac {

/// Parameters of a random CQAC workload, chosen to expose exactly the
/// quantities the paper's Figure 4 sweeps: the number of views and the
/// number of distinct variables and constants.
struct WorkloadConfig {
  /// Distinct variables in the query.
  int num_variables = 4;

  /// Distinct constants shared by the query's and views' comparisons.
  /// `num_variables + num_constants` is the x-axis of Figures 4(b,c).
  int num_constants = 2;

  /// Ordinary subgoals in the query body.
  int num_subgoals = 3;

  /// Base relation names (p0, p1, ...), all binary.
  int num_predicates = 3;

  /// Arithmetic comparisons attached to the query.
  int num_query_comparisons = 1;

  /// Number of views.  Most are projections of query fragments (so
  /// rewritings frequently exist, as in the paper's experiments); a
  /// fraction are random distractors.
  int num_views = 4;

  /// Ordinary subgoals per view body.
  int view_subgoals = 2;

  /// Fraction of views generated as distractors unrelated to the query.
  double distractor_fraction = 0.25;

  /// PRNG seed; equal configs with equal seeds generate byte-identical
  /// instances — across platforms, standard libraries, and build types,
  /// because every bounded draw goes through the explicit rejection
  /// sampler of workload/prand.h instead of the implementation-defined
  /// std::uniform_int_distribution.  `cqacfuzz --seed` leans on this.
  uint64_t seed = 1;
};

/// A generated query/view-set pair.
struct WorkloadInstance {
  ConjunctiveQuery query;
  ViewSet views;
};

/// Deterministic random generator for CQAC rewriting workloads.
///
/// Queries are connected chains of binary subgoals over `num_variables`
/// variables with satisfiable comparisons against the constant pool.
/// Fragment views copy contiguous runs of the query's subgoals, export the
/// variables that the rest of the query (or the head) needs, and carry the
/// query's comparisons restricted to their variables — sometimes relaxed
/// (`<` to `<=`, constants loosened), which is what gives the rewriter
/// genuine work to reject or accept per canonical database.
class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(const WorkloadConfig& config);

  /// Generates the next instance (advances the PRNG).
  WorkloadInstance Generate();

 private:
  ConjunctiveQuery GenerateQuery();
  ConjunctiveQuery FragmentView(const ConjunctiveQuery& query, int index);
  ConjunctiveQuery DistractorView(int index);
  Rational RandomConstant();
  CompOp RandomOrderOp();
  int RandomInt(int lo, int hi);  // inclusive bounds

  WorkloadConfig config_;
  std::mt19937_64 rng_;
};

}  // namespace cqac

#endif  // CQAC_WORKLOAD_GENERATOR_H_

#ifndef CQAC_CONSTRAINTS_ORDERS_H_
#define CQAC_CONSTRAINTS_ORDERS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ast/comparison.h"
#include "ast/term.h"
#include "ast/value.h"

namespace cqac {

/// One equivalence class of a total order: a set of variables, plus at most
/// one constant, that all take the same value.
struct OrderBlock {
  std::vector<std::string> variables;
  std::optional<Rational> constant;

  /// A term denoting the block's value: the constant when present,
  /// otherwise the first variable.
  Term Representative() const;
};

/// A total (pre)order over a set of variables interleaved with a fixed set
/// of constants: a sequence of blocks with strictly increasing values.
/// This is the paper's "partition + total order of its members" object from
/// the canonical-database containment test (Section 2.3).
struct TotalOrder {
  std::vector<OrderBlock> blocks;

  /// A concrete witness assignment: blocks holding a constant get that
  /// constant's value; the others get rationals strictly between their
  /// neighbors' values (density), or beyond the extremes (unboundedness).
  std::map<std::string, Rational> ToAssignment() const;

  /// The per-block values underlying ToAssignment, written into `values`
  /// (resized to blocks.size()).  Values are strictly increasing across
  /// blocks.  This is the allocation-light form used by canonical-database
  /// freezing; ToAssignment is a map-building wrapper around it.
  void BlockValues(std::vector<Rational>* values) const;

  /// The order as a conjunction of comparisons: equalities within each
  /// block and `<` between representatives of adjacent blocks.
  std::vector<Comparison> ToComparisons() const;

  /// The order restricted to `keep_vars` (constants are always kept):
  /// equalities among surviving members and `<` between adjacent surviving
  /// blocks.  Comparisons between two constants are omitted as tautologies.
  std::vector<Comparison> ProjectedComparisons(
      const std::vector<std::string>& keep_vars) const;

  /// Renders as e.g. `X = Y < 3 < Z`.
  std::string ToString() const;
};

/// Invokes `fn` once for every total order of `variables` interleaved with
/// `constants` (which must be duplicate-free; they are sorted internally).
/// Distinct constants never share a block and always appear in ascending
/// order.  Enumeration stops early when `fn` returns false.
///
/// The number of orders grows like the ordered Bell numbers (1, 3, 13, 75,
/// 541, 4683, 47293, ... for 1..7 variables with no constants), which is
/// the source of the algorithm's exponential behavior in the number of
/// distinct variables and constants — exactly the growth the paper's
/// Figure 4 plots.
void ForEachTotalOrder(const std::vector<std::string>& variables,
                       const std::vector<Rational>& constants,
                       const std::function<bool(const TotalOrder&)>& fn);

/// The nodes at depth `depth` of ForEachTotalOrder's insertion tree (the
/// first `depth` variables placed), in DFS order.  Completing them in turn
/// with ForEachCompletion replays ForEachTotalOrder's exact sequence.
std::vector<TotalOrder> TotalOrderPrefixes(
    const std::vector<std::string>& variables,
    const std::vector<Rational>& constants, int depth);

/// Invokes `fn` on every completion of `prefix`, a depth-`depth` node of
/// the insertion tree, in ForEachTotalOrder's order; stops early when `fn`
/// returns false.  ForEachTotalOrder completes the depth-0 node.
void ForEachCompletion(const std::vector<std::string>& variables, int depth,
                       TotalOrder prefix,
                       const std::function<bool(const TotalOrder&)>& fn);

/// Materializes all total orders (the depth-|variables| prefixes).
/// Convenient for tests; prefer ForEachTotalOrder in algorithmic code.
std::vector<TotalOrder> EnumerateTotalOrders(
    const std::vector<std::string>& variables,
    const std::vector<Rational>& constants);

/// Counters for one satisfying-order enumeration.  A "node" is a state of
/// the enumeration tree: the root (constants only) plus every accepted
/// placement of a variable into a partial order.  A candidate placement
/// rejected by an axiom check before recursion counts as pruned.
struct OrderEnumerationStats {
  int64_t nodes_visited = 0;
  int64_t nodes_pruned = 0;
  /// Orders handed to the callback.
  int64_t orders_emitted = 0;
};

/// Like ForEachTotalOrder, but only visits orders whose witness assignment
/// satisfies `axioms`, in ForEachTotalOrder's sequence, pruning
/// inconsistent prefixes during construction: a partial placement whose
/// order constraints already contradict the axioms can never extend to a
/// satisfying order.  When the axioms chain most variables (e.g. the
/// expanded Pre-Rewritings of Phase 2, which carry a full total order over
/// the query's variables), this visits a tiny fraction of the
/// ordered-Bell-many orders.
///
/// Each axiom is checked against the *partial* block sequence the moment
/// its second endpoint is placed (a block chain totally orders everything
/// already placed, and later insertions never change the relative order of
/// two placed terms), so a violating subtree is cut at its root instead of
/// being walked and filtered at the leaves.  Axioms are first closed under
/// transitivity (through constants too), which lets the tree also cut
/// placements that only *implied* constraints forbid.
///
/// `constants` must include every constant occurring in `axioms`;
/// otherwise an axiom's truth is not determined by the order and the
/// enumeration may miss satisfying orders.  When an axiom mentions a
/// constant outside `constants` or a variable outside `variables`,
/// positional checks cannot decide it; the enumeration then runs the
/// unpruned reference, internal::ForEachSatisfyingOrderLegacy, which
/// emits the same sequence.
void ForEachSatisfyingOrder(const std::vector<std::string>& variables,
                            const std::vector<Rational>& constants,
                            const std::vector<Comparison>& axioms,
                            const std::function<bool(const TotalOrder&)>& fn,
                            OrderEnumerationStats* stats = nullptr);

/// The completions of a `blocks`-block partial order by `remaining` more
/// variables: f(b, 0) = 1, f(b, r) = b f(b, r-1) + (b+1) f(b+1, r-1) (join
/// a block, or open one in a gap).  Saturates at INT64_MAX.
int64_t CountOrderCompletions(int blocks, int remaining);

/// The orders ForEachTotalOrder visits for `num_constants` distinct
/// constants (ordered Bell numbers when 0).  Saturates at INT64_MAX.
inline int64_t CountTotalOrders(int num_variables, int num_constants) {
  return CountOrderCompletions(num_constants, num_variables);
}

namespace internal {

/// The naive enumerate-then-filter reference: walks the full
/// ForEachTotalOrder insertion tree and tests the axioms with the
/// constraint solver at every leaf.  The differential-testing oracle for
/// ForEachSatisfyingOrder, the "unpruned" side of the node counts
/// phase1_incremental_test pins, and ForEachSatisfyingOrder's own path for
/// axioms over terms outside its universe.
void ForEachSatisfyingOrderLegacy(
    const std::vector<std::string>& variables,
    const std::vector<Rational>& constants,
    const std::vector<Comparison>& axioms,
    const std::function<bool(const TotalOrder&)>& fn,
    OrderEnumerationStats* stats = nullptr);

/// Test-only switch: while forced, ForEachSatisfyingOrder routes every
/// enumeration through ForEachSatisfyingOrderLegacy.  By the enumerator's
/// contract the emitted satisfying orders are identical either way — only
/// the node counters change — and the differential fuzzer flips this
/// switch to prove it on whole-algorithm outputs.  The flag is a relaxed atomic:
/// flip it only while no enumeration is in flight.
void ForceSatisfyingOrderFallbackForTest(bool forced);
bool SatisfyingOrderFallbackForcedForTest();

}  // namespace internal

}  // namespace cqac

#endif  // CQAC_CONSTRAINTS_ORDERS_H_

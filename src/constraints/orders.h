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

/// A node of the order-insertion tree in index form: the tree places the
/// variables of a list one at a time, in list order, each either into an
/// existing block or into a new block in some gap.  A variable is named by
/// its position in the list and a constant by its rank among the
/// ascending, distinct constants.  Blocks are numbered left to right.
struct OrderState {
  std::vector<int> var_block;    // variable -> block, -1 while unplaced
  std::vector<int> const_block;  // constant -> block (always placed)
  int num_blocks = 0;
  int placed = 0;  // variables 0..placed-1 are placed
};

/// A variable (by list position) or a constant (by ascending rank).
struct OrderTerm {
  bool is_var;
  int index;
};

/// A comparison between two order terms: an axiom the orders of an
/// OrderEnumerator must satisfy.
struct OrderAxiom {
  OrderTerm lhs;
  CompOp op;
  OrderTerm rhs;
};

/// Counters for one satisfying-order enumeration.  A "node" is a state of
/// the enumeration tree: the root (constants only) plus every accepted
/// placement of a variable into a partial order.  A candidate placement
/// rejected by an axiom check before recursion counts as pruned.
struct OrderEnumerationStats {
  int64_t nodes_visited = 0;
  int64_t nodes_pruned = 0;
  /// Orders handed to the callback.
  int64_t orders_emitted = 0;
  /// Orders the walk passed over without emitting: every order under a cut
  /// placement or a rejected start node, and every leaf the leaf filter
  /// drops.  Counted as the walk reaches them, so at each callback the
  /// orders emitted before it plus orders_pruned is its position in the
  /// unpruned tree's DFS order.
  int64_t orders_pruned = 0;
};

/// The one order enumeration: a depth-first walk of the insertion tree
/// over OrderStates, with no names and no values.  Every order-walking
/// entry point below (ForEachTotalOrder, TotalOrderPrefixes,
/// ForEachCompletion, ForEachSatisfyingOrder and its legacy reference) is
/// an adapter over it, as are Phase 1 and the canonical-database
/// containment test, which consume the states directly.
///
/// With axioms, the walk is prefix-pruned: a placement whose order
/// constraints already contradict the axioms is cut before its subtree is
/// built, and only satisfying orders are emitted, in the unpruned tree's
/// sequence.  The invariant making prefix checks sound: once two terms are
/// both placed, their relative order (<, =, >) never changes anywhere in
/// the subtree — blocks are never merged, and a gap insertion only shifts
/// positions uniformly.  So every axiom is decided permanently the moment
/// its last variable is placed.  To also cut placements that only
/// *implied* constraints forbid (X < Y, Y < Z placed as Z..X with Y still
/// pending), the axioms are closed under transitivity across variables
/// and constants at construction.
///
/// While internal::ForceSatisfyingOrderFallbackForTest is set when the
/// enumerator is built, it prunes nothing and instead tests the axioms at
/// every leaf: the enumerate-then-filter reference, same emitted sequence.
///
/// Immutable after construction: one enumerator can serve concurrent walks,
/// each over its own OrderState.
class OrderEnumerator {
 public:
  using Visitor = std::function<bool(const OrderState&)>;

  /// Every order of `num_variables` variables and `num_constants`
  /// constants.
  OrderEnumerator(int num_variables, int num_constants)
      : OrderEnumerator(num_variables, num_constants, {}) {}

  /// Only the orders satisfying `axioms`, whose terms must lie in the
  /// universe.
  OrderEnumerator(int num_variables, int num_constants,
                  const std::vector<OrderAxiom>& axioms);

  /// The root: the constants in ascending order, no variable placed.
  OrderState Root() const;

  /// Walks the subtree of `state` (a node of the tree) down to depth
  /// `depth`, in depth-first order, calling `fn` on each node there; stops
  /// early once `fn` returns false and then returns false.  `state` is
  /// restored before returning.  `stats`, when non-null, counts the start
  /// node and every node below it.  A start node whose placed terms
  /// already violate the axioms is cut whole: `fn` is never called and
  /// all its completions count as pruned.
  bool Walk(OrderState* state, int depth, const Visitor& fn,
            OrderEnumerationStats* stats = nullptr) const;

  /// The prefix check: true iff some completion of `prefix` satisfies the
  /// axioms.  Found by walking to the first such completion; the
  /// positional checks decide most prefixes before the walk starts.
  bool Admits(const OrderState& prefix) const;

  int num_variables() const { return num_variables_; }

 private:
  /// One positional constraint `lhs op rhs`, op one of <, <=, != after
  /// compilation, checked when its last variable is placed.
  struct PositionalCheck {
    OrderTerm lhs;
    CompOp op;
    OrderTerm rhs;
  };

  void Compile(const std::vector<OrderAxiom>& axioms);
  bool Place(OrderState* s, int next, int depth, const Visitor& fn,
             OrderEnumerationStats* stats) const;
  bool PlacementOk(const OrderState& s, int var) const;
  bool SatisfiesAxioms(const OrderState& s) const;

  int num_variables_;
  int num_constants_;
  bool impossible_ = false;  // the axioms admit no order
  bool filter_leaves_ = false;  // the legacy reference: test at the leaves
  std::vector<OrderAxiom> axioms_;  // as given, for filter_leaves_
  std::vector<PositionalCheck> checks_;
  std::vector<std::vector<int>> fires_at_;  // variable -> check indices
};

/// The constants as an enumeration orders them: ascending, distinct.
std::vector<Rational> OrderConstants(const std::vector<Rational>& constants);

/// Compiles `axioms` over named `variables` and ascending distinct
/// `constants` into index form.  False when an axiom mentions a term
/// outside them (`out` is then incomplete).
bool CompileOrderAxioms(const std::vector<std::string>& variables,
                        const std::vector<Rational>& constants,
                        const std::vector<Comparison>& axioms,
                        std::vector<OrderAxiom>* out);

/// Renders `state` over `variables` and ascending distinct `constants`
/// into `out`, reusing its storage: each block lists its placed variables
/// by list position, then its constant.  This is the order the adapters
/// hand out; text is rendered only from it.
void RenderOrder(const OrderState& state,
                 const std::vector<std::string>& variables,
                 const std::vector<Rational>& constants, TotalOrder* out);

/// The inverse of RenderOrder: the state of `order` over `variables` and
/// ascending distinct `constants`.  A listed variable the order lacks
/// stays unplaced, and `placed` counts the leading placed variables.
/// False when a constant of either side is missing from the other.
bool StateOfOrder(const TotalOrder& order,
                  const std::vector<std::string>& variables,
                  const std::vector<Rational>& constants, OrderState* out);

/// The per-block values TotalOrder::BlockValues assigns to an order of
/// `num_blocks` blocks whose constant k, of value constants[k], sits in
/// block const_block[k].  A function of the block count and the constant
/// positions only.
void FillBlockValues(int num_blocks, const std::vector<int>& const_block,
                     const std::vector<Rational>& constants,
                     std::vector<Rational>* values);

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

/// Like ForEachTotalOrder, but only visits orders whose witness assignment
/// satisfies `axioms`, in ForEachTotalOrder's sequence: OrderEnumerator's
/// prefix-pruned walk, rendered.  When the axioms chain most variables
/// (e.g. the expanded Pre-Rewritings of Phase 2, which carry a full total
/// order over the query's variables), this visits a tiny fraction of the
/// ordered-Bell-many orders.
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
/// a block, or open one in a gap).  Saturates at INT64_MAX.  Allocates
/// nothing when blocks + remaining < 64.
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
/// enumeration through ForEachSatisfyingOrderLegacy, and an OrderEnumerator
/// built with axioms filters leaves instead of pruning.  By the enumerator's
/// contract the emitted satisfying orders are identical either way — only
/// the node counters change — and the differential fuzzer flips this
/// switch to prove it on whole-algorithm outputs.  The flag is a relaxed atomic:
/// flip it only while no enumeration is in flight.
void ForceSatisfyingOrderFallbackForTest(bool forced);
bool SatisfyingOrderFallbackForcedForTest();

}  // namespace internal

}  // namespace cqac

#endif  // CQAC_CONSTRAINTS_ORDERS_H_

#include "constraints/orders.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>

#include "constraints/ac_solver.h"

namespace cqac {

Term OrderBlock::Representative() const {
  if (constant.has_value()) return Term::Constant(*constant);
  return Term::Variable(variables.front());
}

void TotalOrder::BlockValues(std::vector<Rational>* out) const {
  const int n = static_cast<int>(blocks.size());
  std::vector<Rational>& values = *out;
  values.resize(n);

  // Positions of the blocks that carry constants; their values are fixed.
  // (Constants appear in ascending order, so the values below are strictly
  // increasing across blocks.)
  int first = -1;
  int last = -1;
  for (int i = 0; i < n; ++i) {
    if (blocks[i].constant.has_value()) {
      values[i] = *blocks[i].constant;
      if (first < 0) first = i;
      last = i;
    }
  }

  if (first < 0) {
    for (int i = 0; i < n; ++i) values[i] = Rational(i + 1);
    return;
  }
  // Before the first constant: integers descending below it.
  for (int i = 0; i < first; ++i) {
    values[i] = values[first] - Rational(first - i);
  }
  // Between consecutive constants: evenly spaced rationals (density).
  int lo = first;
  for (int hi = first + 1; hi <= last; ++hi) {
    if (!blocks[hi].constant.has_value()) continue;
    const int gap = hi - lo - 1;
    const Rational span = values[hi] - values[lo];
    for (int i = lo + 1; i < hi; ++i) {
      values[i] = values[lo] + span * Rational(i - lo, gap + 1);
    }
    lo = hi;
  }
  // After the last constant: integers ascending above it.
  for (int i = last + 1; i < n; ++i) {
    values[i] = values[last] + Rational(i - last);
  }
}

std::map<std::string, Rational> TotalOrder::ToAssignment() const {
  std::vector<Rational> values;
  BlockValues(&values);
  std::map<std::string, Rational> assignment;
  for (size_t i = 0; i < blocks.size(); ++i) {
    for (const std::string& v : blocks[i].variables) {
      assignment.emplace(v, values[i]);
    }
  }
  return assignment;
}

std::vector<Comparison> TotalOrder::ToComparisons() const {
  std::vector<Comparison> out;
  for (size_t i = 0; i < blocks.size(); ++i) {
    const Term rep = blocks[i].Representative();
    for (const std::string& v : blocks[i].variables) {
      const Term t = Term::Variable(v);
      if (t != rep) out.push_back(Comparison(t, CompOp::kEq, rep));
    }
    if (i + 1 < blocks.size()) {
      out.push_back(
          Comparison(rep, CompOp::kLt, blocks[i + 1].Representative()));
    }
  }
  return out;
}

std::vector<Comparison> TotalOrder::ProjectedComparisons(
    const std::vector<std::string>& keep_vars) const {
  std::vector<Comparison> out;
  std::optional<Term> prev_rep;
  for (const OrderBlock& block : blocks) {
    OrderBlock restricted;
    restricted.constant = block.constant;
    for (const std::string& v : block.variables) {
      if (std::find(keep_vars.begin(), keep_vars.end(), v) !=
          keep_vars.end()) {
        restricted.variables.push_back(v);
      }
    }
    if (restricted.variables.empty() && !restricted.constant.has_value()) {
      continue;  // Block invisible after projection.
    }
    const Term rep = restricted.Representative();
    for (const std::string& v : restricted.variables) {
      const Term t = Term::Variable(v);
      if (t != rep) out.push_back(Comparison(t, CompOp::kEq, rep));
    }
    if (prev_rep.has_value() &&
        !(prev_rep->IsConstant() && rep.IsConstant())) {
      out.push_back(Comparison(*prev_rep, CompOp::kLt, rep));
    }
    prev_rep = rep;
  }
  return out;
}

std::string TotalOrder::ToString() const {
  std::string out;
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (i > 0) out += " < ";
    const OrderBlock& block = blocks[i];
    bool first = true;
    for (const std::string& v : block.variables) {
      if (!first) out += " = ";
      first = false;
      out += v;
    }
    if (block.constant.has_value()) {
      if (!first) out += " = ";
      out += block.constant->ToString();
    }
  }
  return out;
}

namespace {

using OrderFn = std::function<bool(const TotalOrder&)>;

/// Recursively inserts `vars[next..end)` into `order`, calling `fn`
/// on every completed order.  `enter`, when non-null, is asked at every
/// tree node (the root and the leaves included) whether to descend into
/// it.  Returns false once `fn` asks to stop.
bool InsertRemaining(const std::vector<std::string>& vars, size_t next,
                     size_t end, TotalOrder* order, const OrderFn& fn,
                     const OrderFn* enter = nullptr) {
  if (enter != nullptr && !(*enter)(*order)) return true;
  if (next == end) return fn(*order);
  const std::string& var = vars[next];
  // Option 1: join each existing block.  Indexed loop: deeper recursion
  // levels insert and erase blocks, which invalidates references.
  for (size_t b = 0; b < order->blocks.size(); ++b) {
    order->blocks[b].variables.push_back(var);
    if (!InsertRemaining(vars, next + 1, end, order, fn, enter)) return false;
    order->blocks[b].variables.pop_back();
  }
  // Option 2: open a new block in each gap.
  OrderBlock fresh;
  fresh.variables.push_back(var);
  for (size_t gap = 0; gap <= order->blocks.size(); ++gap) {
    order->blocks.insert(order->blocks.begin() + gap, fresh);
    if (!InsertRemaining(vars, next + 1, end, order, fn, enter)) return false;
    order->blocks.erase(order->blocks.begin() + gap);
  }
  return true;
}

std::vector<Rational> SortedUniqueConstants(
    const std::vector<Rational>& constants) {
  std::vector<Rational> sorted = constants;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return sorted;
}

/// The constants-only order: one block per distinct constant, ascending.
TotalOrder BaseOrder(const std::vector<Rational>& constants) {
  TotalOrder base;
  for (const Rational& c : SortedUniqueConstants(constants)) {
    OrderBlock block;
    block.constant = c;
    base.blocks.push_back(block);
  }
  return base;
}

}  // namespace

std::vector<TotalOrder> TotalOrderPrefixes(
    const std::vector<std::string>& variables,
    const std::vector<Rational>& constants, int depth) {
  std::vector<TotalOrder> prefixes;
  TotalOrder base = BaseOrder(constants);
  InsertRemaining(variables, 0, static_cast<size_t>(depth), &base,
                  [&prefixes](const TotalOrder& prefix) {
                    prefixes.push_back(prefix);
                    return true;
                  });
  return prefixes;
}

void ForEachCompletion(const std::vector<std::string>& variables, int depth,
                       TotalOrder prefix,
                       const std::function<bool(const TotalOrder&)>& fn) {
  InsertRemaining(variables, static_cast<size_t>(depth), variables.size(),
                  &prefix, fn);
}

void ForEachTotalOrder(const std::vector<std::string>& variables,
                       const std::vector<Rational>& constants,
                       const std::function<bool(const TotalOrder&)>& fn) {
  ForEachCompletion(variables, 0, BaseOrder(constants), fn);
}

std::vector<TotalOrder> EnumerateTotalOrders(
    const std::vector<std::string>& variables,
    const std::vector<Rational>& constants) {
  return TotalOrderPrefixes(variables, constants,
                            static_cast<int>(variables.size()));
}

namespace {

int64_t SatMul(int64_t a, int64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > std::numeric_limits<int64_t>::max() / b) {
    return std::numeric_limits<int64_t>::max();
  }
  return a * b;
}

/// The prefix-pruned enumeration tree behind ForEachSatisfyingOrder.
///
/// Emits exactly the satisfying orders the naive enumerate-then-filter
/// reference would (ForEachSatisfyingOrderLegacy), in the same sequence:
/// pruning only removes subtrees containing no satisfying leaf.
///
/// The key invariant making prefix checks sound: once two terms are both
/// placed, their relative order (<, =, >) never changes anywhere in the
/// subtree — blocks are never merged, and a gap insertion only shifts
/// positions uniformly.  So every axiom is decided permanently the moment
/// its second endpoint is placed, and a violated axiom kills the entire
/// subtree before it is built.  To also cut placements that only *implied*
/// constraints forbid (X < Y, Y < Z placed as Z..X with Y still pending),
/// the axioms are closed under transitivity across variables and constants
/// at compile time, and the closure's constraints are checked positionally
/// the same way.
class PrunedOrderEnumerator {
 public:
  PrunedOrderEnumerator(const std::vector<std::string>& variables,
                        const std::vector<Rational>& sorted_constants,
                        const std::vector<Comparison>& axioms,
                        OrderEnumerationStats* stats)
      : variables_(variables), stats_(stats) {
    Compile(sorted_constants, axioms);
  }

  /// False when an axiom mentions a term outside the universe: the
  /// position encoding cannot decide it, and Run must not be called.
  bool complete() const { return !incomplete_; }

  void Run(TotalOrder* order, const OrderFn& fn) {
    if (impossible_) return;
    ++stats_->nodes_visited;  // Root: the constants-only base order.
    Insert(0, order, fn);
  }

 private:
  static constexpr int kUnplaced = -1;
  static constexpr int kNotTracked = -1;

  enum class CheckOp { kLt, kLe, kNe };

  /// One positional constraint `lhs op rhs` between tracked-variable slots
  /// and/or constant slots, checked when its last endpoint is placed.
  struct PositionalCheck {
    bool lhs_is_var;
    bool rhs_is_var;
    int lhs;
    int rhs;
    CheckOp op;
  };

  void Compile(const std::vector<Rational>& sorted_constants,
               const std::vector<Comparison>& axioms) {
    auto var_slot = [this](const std::string& name) -> int {
      auto [it, inserted] =
          var_ids_.emplace(name, static_cast<int>(var_block_.size()));
      if (inserted) var_block_.push_back(kUnplaced);
      return it->second;
    };
    // Resolve every axiom term to a tracked-variable or constant slot.
    struct Side {
      bool is_var;
      int slot;
    };
    auto compile_term = [&](const Term& t) -> Side {
      if (t.IsVariable()) return {true, var_slot(t.name())};
      const auto it = std::lower_bound(sorted_constants.begin(),
                                       sorted_constants.end(), t.value());
      if (it == sorted_constants.end() || *it != t.value()) {
        // Contract violation (axiom constant outside `constants`): the
        // position encoding cannot represent it.
        incomplete_ = true;
        return {false, 0};
      }
      return {false, static_cast<int>(it - sorted_constants.begin())};
    };
    struct RawAxiom {
      Side lhs;
      Side rhs;
      CompOp op;
    };
    std::vector<RawAxiom> raw;
    raw.reserve(axioms.size());
    for (const Comparison& c : axioms) {
      raw.push_back({compile_term(c.lhs()), compile_term(c.rhs()), c.op()});
    }
    // Which tracked variable (if any) each insertion step places.  A
    // tracked variable outside `variables` would never be placed, leaving
    // its axioms undecidable by position.
    insertion_var_.assign(variables_.size(), kNotTracked);
    for (size_t i = 0; i < variables_.size(); ++i) {
      const auto it = var_ids_.find(variables_[i]);
      if (it != var_ids_.end()) insertion_var_[i] = it->second;
    }
    {
      std::vector<bool> placed_ever(var_block_.size(), false);
      for (const int slot : insertion_var_) {
        if (slot != kNotTracked) placed_ever[slot] = true;
      }
      for (size_t s = 0; s < placed_ever.size(); ++s) {
        if (!placed_ever[s]) incomplete_ = true;
      }
    }
    if (incomplete_) return;  // The caller falls back; nothing below applies.

    // Transitive closure over terms (tracked variables, then constants).
    // rel[i][j]: 0 none, 1 `i <= j`, 2 `i < j`.  kEq contributes both
    // directions; kNe is not transitive and stays a direct check.
    const int v = static_cast<int>(var_block_.size());
    const int t = v + static_cast<int>(sorted_constants.size());
    std::vector<uint8_t> rel(static_cast<size_t>(t) * t, 0);
    auto at = [&rel, t](int i, int j) -> uint8_t& { return rel[i * t + j]; };
    auto seed = [&](int i, int j, uint8_t strength) {
      if (at(i, j) < strength) at(i, j) = strength;
    };
    auto term_id = [v](const Side& s) { return s.is_var ? s.slot : v + s.slot; };
    std::vector<PositionalCheck> ne_checks;
    for (const RawAxiom& a : raw) {
      const int i = term_id(a.lhs);
      const int j = term_id(a.rhs);
      switch (a.op) {
        case CompOp::kLt: seed(i, j, 2); break;
        case CompOp::kLe: seed(i, j, 1); break;
        case CompOp::kEq: seed(i, j, 1); seed(j, i, 1); break;
        case CompOp::kGe: seed(j, i, 1); break;
        case CompOp::kGt: seed(j, i, 2); break;
        case CompOp::kNe:
          if (i == j) {
            impossible_ = true;  // X != X or c != c.
            return;
          }
          ne_checks.push_back(
              {a.lhs.is_var, a.rhs.is_var, a.lhs.slot, a.rhs.slot, CheckOp::kNe});
          break;
      }
    }
    // The constants' own order is part of every total order.
    for (int i = 0; i + 1 < static_cast<int>(sorted_constants.size()); ++i) {
      seed(v + i, v + i + 1, 2);
    }
    for (int k = 0; k < t; ++k) {
      for (int i = 0; i < t; ++i) {
        if (at(i, k) == 0) continue;
        for (int j = 0; j < t; ++j) {
          if (at(k, j) == 0) continue;
          seed(i, j, std::max(at(i, k), at(k, j)) == 2 ? 2 : 1);
        }
      }
    }
    for (int i = 0; i < t; ++i) {
      if (at(i, i) == 2) {
        impossible_ = true;  // Axioms imply x < x: no satisfying order.
        return;
      }
    }
    // Closure constraints between two constants are decided now (their
    // block positions are fixed); the rest become positional checks.
    for (int i = 0; i < t; ++i) {
      for (int j = 0; j < t; ++j) {
        if (i == j || at(i, j) == 0) continue;
        const bool strict = at(i, j) == 2;
        if (i >= v && j >= v) {
          const int ci = i - v;
          const int cj = j - v;
          if (strict ? !(ci < cj) : !(ci <= cj)) {
            impossible_ = true;
            return;
          }
          continue;
        }
        checks_.push_back({i < v, j < v, i < v ? i : i - v, j < v ? j : j - v,
                           strict ? CheckOp::kLt : CheckOp::kLe});
      }
    }
    checks_.insert(checks_.end(), ne_checks.begin(), ne_checks.end());
    // Per-variable incident check lists: a check fires when its last
    // variable endpoint is placed.
    incident_.resize(v);
    for (size_t idx = 0; idx < checks_.size(); ++idx) {
      const PositionalCheck& c = checks_[idx];
      if (c.lhs_is_var) incident_[c.lhs].push_back(static_cast<int>(idx));
      if (c.rhs_is_var && !(c.lhs_is_var && c.lhs == c.rhs)) {
        incident_[c.rhs].push_back(static_cast<int>(idx));
      }
    }
    // Constant blocks start at positions 0..k-1 of the base order and
    // shift as variable blocks open before them.
    const_block_.resize(sorted_constants.size());
    for (size_t i = 0; i < sorted_constants.size(); ++i) {
      const_block_[i] = static_cast<int>(i);
    }
  }

  /// All positional checks incident to `slot` whose endpoints are both
  /// placed.  Called with `slot` freshly placed, so each axiom is
  /// evaluated exactly when it becomes decidable.
  bool PlacementOk(int slot) const {
    for (const int idx : incident_[slot]) {
      const PositionalCheck& c = checks_[idx];
      const int i = c.lhs_is_var ? var_block_[c.lhs] : const_block_[c.lhs];
      if (i == kUnplaced) continue;
      const int j = c.rhs_is_var ? var_block_[c.rhs] : const_block_[c.rhs];
      if (j == kUnplaced) continue;
      bool ok = false;
      switch (c.op) {
        case CheckOp::kLt: ok = i < j; break;
        case CheckOp::kLe: ok = i <= j; break;
        case CheckOp::kNe: ok = i != j; break;
      }
      if (!ok) return false;
    }
    return true;
  }

  bool Insert(size_t next, TotalOrder* order, const OrderFn& fn) {
    if (next == variables_.size()) {
      ++stats_->orders_emitted;
      return fn(*order);
    }
    const std::string& var = variables_[next];
    const int tracked = insertion_var_[next];
    // Option 1: join an existing block.
    for (size_t b = 0; b < order->blocks.size(); ++b) {
      if (tracked != kNotTracked) {
        var_block_[tracked] = static_cast<int>(b);
        if (!PlacementOk(tracked)) {
          var_block_[tracked] = kUnplaced;
          ++stats_->nodes_pruned;
          continue;
        }
      }
      order->blocks[b].variables.push_back(var);
      ++stats_->nodes_visited;
      const bool keep_going = Insert(next + 1, order, fn);
      order->blocks[b].variables.pop_back();
      if (tracked != kNotTracked) var_block_[tracked] = kUnplaced;
      if (!keep_going) return false;
    }
    // Option 2: open a new block in a gap.
    OrderBlock fresh;
    fresh.variables.push_back(var);
    for (size_t gap = 0; gap <= order->blocks.size(); ++gap) {
      ShiftUp(static_cast<int>(gap));
      if (tracked != kNotTracked) {
        var_block_[tracked] = static_cast<int>(gap);
        if (!PlacementOk(tracked)) {
          var_block_[tracked] = kUnplaced;
          ShiftDown(static_cast<int>(gap));
          ++stats_->nodes_pruned;
          continue;
        }
      }
      order->blocks.insert(order->blocks.begin() + gap, fresh);
      ++stats_->nodes_visited;
      const bool keep_going = Insert(next + 1, order, fn);
      order->blocks.erase(order->blocks.begin() + gap);
      if (tracked != kNotTracked) var_block_[tracked] = kUnplaced;
      ShiftDown(static_cast<int>(gap));
      if (!keep_going) return false;
    }
    return true;
  }

  /// A new block opened at `gap`: every tracked placement at or after it
  /// moves up one position.  (kUnplaced is negative, so it never shifts.)
  void ShiftUp(int gap) {
    for (int& b : var_block_) {
      if (b >= gap) ++b;
    }
    for (int& b : const_block_) {
      if (b >= gap) ++b;
    }
  }

  /// Inverse of ShiftUp after the block at `gap` is removed.
  void ShiftDown(int gap) {
    for (int& b : var_block_) {
      if (b > gap) --b;
    }
    for (int& b : const_block_) {
      if (b > gap) --b;
    }
  }

  const std::vector<std::string>& variables_;
  OrderEnumerationStats* stats_;
  std::map<std::string, int> var_ids_;
  std::vector<PositionalCheck> checks_;
  std::vector<std::vector<int>> incident_;  // tracked variable -> check idxs
  std::vector<int> var_block_;    // tracked variable -> block, or kUnplaced
  std::vector<int> const_block_;  // constant slot -> block (always placed)
  std::vector<int> insertion_var_;
  bool incomplete_ = false;
  bool impossible_ = false;
};

}  // namespace

void ForEachSatisfyingOrder(const std::vector<std::string>& variables,
                            const std::vector<Rational>& constants,
                            const std::vector<Comparison>& axioms,
                            const std::function<bool(const TotalOrder&)>& fn,
                            OrderEnumerationStats* stats) {
  OrderEnumerationStats local;
  if (stats == nullptr) stats = &local;
  if (internal::SatisfyingOrderFallbackForcedForTest()) {
    internal::ForEachSatisfyingOrderLegacy(variables, constants, axioms, fn,
                                           stats);
    return;
  }
  const std::vector<Rational> sorted_constants =
      SortedUniqueConstants(constants);
  PrunedOrderEnumerator enumerator(variables, sorted_constants, axioms, stats);
  if (!enumerator.complete()) {
    // An axiom over a term outside the universe: only the reference's
    // solver check at every leaf decides it.
    internal::ForEachSatisfyingOrderLegacy(variables, sorted_constants,
                                           axioms, fn, stats);
    return;
  }
  TotalOrder base = BaseOrder(sorted_constants);
  enumerator.Run(&base, fn);
}

namespace internal {

namespace {
std::atomic<bool> g_force_order_fallback{false};
}  // namespace

void ForceSatisfyingOrderFallbackForTest(bool forced) {
  g_force_order_fallback.store(forced, std::memory_order_relaxed);
}

bool SatisfyingOrderFallbackForcedForTest() {
  return g_force_order_fallback.load(std::memory_order_relaxed);
}

void ForEachSatisfyingOrderLegacy(
    const std::vector<std::string>& variables,
    const std::vector<Rational>& constants,
    const std::vector<Comparison>& axioms,
    const std::function<bool(const TotalOrder&)>& fn,
    OrderEnumerationStats* stats) {
  OrderEnumerationStats local;
  if (stats == nullptr) stats = &local;
  TotalOrder base = BaseOrder(constants);
  const OrderFn count_node = [stats](const TotalOrder&) {
    ++stats->nodes_visited;
    return true;
  };
  InsertRemaining(
      variables, 0, variables.size(), &base,
      [&](const TotalOrder& order) {
        if (!AcSolver::SatisfiedBy(axioms, order.ToAssignment())) return true;
        ++stats->orders_emitted;
        return fn(order);
      },
      &count_node);
}

}  // namespace internal

int64_t CountOrderCompletions(int blocks, int remaining) {
  if (blocks < 0 || remaining < 0) return 0;
  constexpr int64_t kSaturated = std::numeric_limits<int64_t>::max();
  // f[k - blocks] holds f(k, step) for the block counts k still needed.
  // Every f(k, r) with a nonzero coefficient is at most the final count,
  // so an intermediate saturates only when the answer does.
  std::vector<int64_t> f(static_cast<size_t>(remaining) + 1, 1);
  for (int step = 1; step <= remaining; ++step) {
    for (int i = 0; i + step <= remaining; ++i) {
      const int64_t join = SatMul(blocks + i, f[i]);
      const int64_t open = SatMul(blocks + i + 1, f[i + 1]);
      f[i] = join > kSaturated - open ? kSaturated : join + open;
    }
  }
  return f[0];
}

}  // namespace cqac

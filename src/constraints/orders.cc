#include "constraints/orders.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "constraints/ac_solver.h"

namespace cqac {

Term OrderBlock::Representative() const {
  if (constant.has_value()) return Term::Constant(*constant);
  return Term::Variable(variables.front());
}

void FillBlockValues(int num_blocks, const std::vector<int>& const_block,
                     const std::vector<Rational>& constants,
                     std::vector<Rational>* out) {
  std::vector<Rational>& values = *out;
  values.resize(num_blocks);
  if (const_block.empty()) {
    for (int i = 0; i < num_blocks; ++i) values[i] = Rational(i + 1);
    return;
  }
  // Blocks that carry constants have fixed values.  (Constants appear in
  // ascending order, so the values below are strictly increasing.)
  for (size_t k = 0; k < const_block.size(); ++k) {
    values[const_block[k]] = constants[k];
  }
  const int first = const_block.front();
  const int last = const_block.back();
  // Before the first constant: integers descending below it.
  for (int i = 0; i < first; ++i) {
    values[i] = values[first] - Rational(first - i);
  }
  // Between consecutive constants: evenly spaced rationals (density).
  for (size_t k = 0; k + 1 < const_block.size(); ++k) {
    const int lo = const_block[k];
    const int hi = const_block[k + 1];
    const int gap = hi - lo - 1;
    const Rational span = values[hi] - values[lo];
    for (int i = lo + 1; i < hi; ++i) {
      values[i] = values[lo] + span * Rational(i - lo, gap + 1);
    }
  }
  // After the last constant: integers ascending above it.
  for (int i = last + 1; i < num_blocks; ++i) {
    values[i] = values[last] + Rational(i - last);
  }
}

void TotalOrder::BlockValues(std::vector<Rational>* values) const {
  std::vector<int> const_block;
  std::vector<Rational> constants;
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (!blocks[i].constant.has_value()) continue;
    const_block.push_back(static_cast<int>(i));
    constants.push_back(*blocks[i].constant);
  }
  FillBlockValues(static_cast<int>(blocks.size()), const_block, constants,
                  values);
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

int64_t SatMul(int64_t a, int64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > std::numeric_limits<int64_t>::max() / b) {
    return std::numeric_limits<int64_t>::max();
  }
  return a * b;
}

int BlockOf(const OrderState& s, const OrderTerm& t) {
  return t.is_var ? s.var_block[t.index] : s.const_block[t.index];
}

/// Whether blocks `i` and `j` stand in relation `op`: blocks are strictly
/// increasing in value, so positions compare as the values do.
bool HoldsBetween(int i, CompOp op, int j) {
  switch (op) {
    case CompOp::kLt: return i < j;
    case CompOp::kLe: return i <= j;
    case CompOp::kEq: return i == j;
    case CompOp::kNe: return i != j;
    case CompOp::kGe: return i >= j;
    case CompOp::kGt: return i > j;
  }
  return false;
}

/// Moves every placed variable before `next`, and every constant, at or
/// after block `gap` by `delta` (a block opened or closed at `gap`).
void Shift(OrderState* s, int next, int gap, int delta) {
  for (int i = 0; i < next; ++i) {
    if (s->var_block[i] >= gap) s->var_block[i] += delta;
  }
  for (int& b : s->const_block) {
    if (b >= gap) b += delta;
  }
}

/// Walks `tree` from `state` to its nodes at `depth`, rendering each over
/// `variables` and `constants` into one reused order.
bool WalkRendered(const OrderEnumerator& tree, OrderState* state, int depth,
                  const std::vector<std::string>& variables,
                  const std::vector<Rational>& constants, const OrderFn& fn,
                  OrderEnumerationStats* stats = nullptr) {
  TotalOrder order;
  return tree.Walk(
      state, depth,
      [&](const OrderState& s) {
        RenderOrder(s, variables, constants, &order);
        return fn(order);
      },
      stats);
}

}  // namespace

std::vector<Rational> OrderConstants(const std::vector<Rational>& constants) {
  std::vector<Rational> sorted = constants;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return sorted;
}

OrderEnumerator::OrderEnumerator(int num_variables, int num_constants,
                                 const std::vector<OrderAxiom>& axioms)
    : num_variables_(num_variables), num_constants_(num_constants) {
  if (axioms.empty()) return;
  if (internal::SatisfyingOrderFallbackForcedForTest()) {
    filter_leaves_ = true;
    axioms_ = axioms;
    return;
  }
  Compile(axioms);
}

void OrderEnumerator::Compile(const std::vector<OrderAxiom>& axioms) {
  // Transitive closure over terms (variables, then constants).
  // rel[i][j]: 0 none, 1 `i <= j`, 2 `i < j`.  kEq contributes both
  // directions; kNe is not transitive and stays a direct check.
  const int v = num_variables_;
  const int t = v + num_constants_;
  std::vector<uint8_t> rel(static_cast<size_t>(t) * t, 0);
  auto at = [&rel, t](int i, int j) -> uint8_t& { return rel[i * t + j]; };
  auto seed = [&](int i, int j, uint8_t strength) {
    if (at(i, j) < strength) at(i, j) = strength;
  };
  auto term_id = [v](const OrderTerm& x) {
    return x.is_var ? x.index : v + x.index;
  };
  auto term_of = [v](int id) {
    return id < v ? OrderTerm{true, id} : OrderTerm{false, id - v};
  };
  std::vector<PositionalCheck> ne_checks;
  for (const OrderAxiom& a : axioms) {
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
        // Two distinct constants always differ.
        if (a.lhs.is_var || a.rhs.is_var) {
          ne_checks.push_back({a.lhs, CompOp::kNe, a.rhs});
        }
        break;
    }
  }
  // The constants' own order is part of every total order.
  for (int i = 0; i + 1 < num_constants_; ++i) seed(v + i, v + i + 1, 2);
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
        if (strict ? !(i < j) : !(i <= j)) {
          impossible_ = true;
          return;
        }
        continue;
      }
      checks_.push_back(
          {term_of(i), strict ? CompOp::kLt : CompOp::kLe, term_of(j)});
    }
  }
  checks_.insert(checks_.end(), ne_checks.begin(), ne_checks.end());
  // A check fires when its last variable is placed: variables are placed
  // in index order, so that is its highest-indexed variable.
  fires_at_.resize(v);
  for (size_t idx = 0; idx < checks_.size(); ++idx) {
    const PositionalCheck& c = checks_[idx];
    const int last = std::max(c.lhs.is_var ? c.lhs.index : -1,
                              c.rhs.is_var ? c.rhs.index : -1);
    fires_at_[last].push_back(static_cast<int>(idx));
  }
}

OrderState OrderEnumerator::Root() const {
  OrderState s;
  s.var_block.assign(num_variables_, -1);
  s.const_block.resize(num_constants_);
  for (int k = 0; k < num_constants_; ++k) s.const_block[k] = k;
  s.num_blocks = num_constants_;
  return s;
}

bool OrderEnumerator::Walk(OrderState* state, int depth, const Visitor& fn,
                           OrderEnumerationStats* stats) const {
  OrderEnumerationStats local;
  if (stats == nullptr) stats = &local;
  if (impossible_) return true;
  ++stats->nodes_visited;  // The start node.
  return Place(state, state->placed, depth, fn, stats);
}

bool OrderEnumerator::PlacementOk(const OrderState& s, int var) const {
  if (fires_at_.empty()) return true;
  for (const int idx : fires_at_[var]) {
    const PositionalCheck& c = checks_[idx];
    if (!HoldsBetween(BlockOf(s, c.lhs), c.op, BlockOf(s, c.rhs))) {
      return false;
    }
  }
  return true;
}

bool OrderEnumerator::SatisfiesAxioms(const OrderState& s) const {
  for (const OrderAxiom& a : axioms_) {
    if (!HoldsBetween(BlockOf(s, a.lhs), a.op, BlockOf(s, a.rhs))) {
      return false;
    }
  }
  return true;
}

bool OrderEnumerator::Place(OrderState* s, int next, int depth,
                            const Visitor& fn,
                            OrderEnumerationStats* stats) const {
  if (next == depth) {
    if (filter_leaves_ && next == num_variables_ && !SatisfiesAxioms(*s)) {
      return true;
    }
    return fn(*s);
  }
  s->placed = next + 1;
  bool keep_going = true;
  // Option 1: join an existing block.
  for (int b = 0; b < s->num_blocks && keep_going; ++b) {
    s->var_block[next] = b;
    if (!PlacementOk(*s, next)) {
      ++stats->nodes_pruned;
      continue;
    }
    ++stats->nodes_visited;
    keep_going = Place(s, next + 1, depth, fn, stats);
  }
  // Option 2: open a new block in a gap.
  for (int gap = 0; gap <= s->num_blocks && keep_going; ++gap) {
    Shift(s, next, gap, 1);
    ++s->num_blocks;
    s->var_block[next] = gap;
    if (!PlacementOk(*s, next)) {
      ++stats->nodes_pruned;
    } else {
      ++stats->nodes_visited;
      keep_going = Place(s, next + 1, depth, fn, stats);
    }
    --s->num_blocks;
    Shift(s, next, gap, -1);
  }
  s->var_block[next] = -1;
  s->placed = next;
  return keep_going;
}

bool CompileOrderAxioms(const std::vector<std::string>& variables,
                        const std::vector<Rational>& constants,
                        const std::vector<Comparison>& axioms,
                        std::vector<OrderAxiom>* out) {
  std::unordered_map<std::string, int> index;
  for (size_t i = 0; i < variables.size(); ++i) {
    index.emplace(variables[i], static_cast<int>(i));
  }
  const auto resolve = [&](const Term& t, OrderTerm* term) {
    if (t.IsVariable()) {
      const auto it = index.find(t.name());
      if (it == index.end()) return false;
      *term = {true, it->second};
      return true;
    }
    const auto it =
        std::lower_bound(constants.begin(), constants.end(), t.value());
    if (it == constants.end() || *it != t.value()) return false;
    *term = {false, static_cast<int>(it - constants.begin())};
    return true;
  };
  out->clear();
  out->reserve(axioms.size());
  for (const Comparison& c : axioms) {
    OrderAxiom a{{}, c.op(), {}};
    if (!resolve(c.lhs(), &a.lhs) || !resolve(c.rhs(), &a.rhs)) return false;
    out->push_back(a);
  }
  return true;
}

void RenderOrder(const OrderState& state,
                 const std::vector<std::string>& variables,
                 const std::vector<Rational>& constants, TotalOrder* out) {
  out->blocks.resize(state.num_blocks);
  for (OrderBlock& block : out->blocks) {
    block.variables.clear();
    block.constant.reset();
  }
  for (size_t i = 0; i < state.var_block.size(); ++i) {
    if (state.var_block[i] >= 0) {
      out->blocks[state.var_block[i]].variables.push_back(variables[i]);
    }
  }
  for (size_t k = 0; k < state.const_block.size(); ++k) {
    out->blocks[state.const_block[k]].constant = constants[k];
  }
}

bool StateOfOrder(const TotalOrder& order,
                  const std::vector<std::string>& variables,
                  const std::vector<Rational>& constants, OrderState* out) {
  out->var_block.assign(variables.size(), -1);
  out->const_block.assign(constants.size(), -1);
  out->num_blocks = static_cast<int>(order.blocks.size());
  for (size_t b = 0; b < order.blocks.size(); ++b) {
    const OrderBlock& block = order.blocks[b];
    for (const std::string& v : block.variables) {
      const auto it = std::find(variables.begin(), variables.end(), v);
      if (it != variables.end()) {
        out->var_block[it - variables.begin()] = static_cast<int>(b);
      }
    }
    if (!block.constant.has_value()) continue;
    const auto it = std::lower_bound(constants.begin(), constants.end(),
                                     *block.constant);
    if (it == constants.end() || *it != *block.constant) return false;
    out->const_block[it - constants.begin()] = static_cast<int>(b);
  }
  out->placed = 0;
  while (out->placed < static_cast<int>(variables.size()) &&
         out->var_block[out->placed] >= 0) {
    ++out->placed;
  }
  return std::find(out->const_block.begin(), out->const_block.end(), -1) ==
         out->const_block.end();
}

std::vector<TotalOrder> TotalOrderPrefixes(
    const std::vector<std::string>& variables,
    const std::vector<Rational>& constants, int depth) {
  const std::vector<Rational> sorted = OrderConstants(constants);
  const OrderEnumerator tree(static_cast<int>(variables.size()),
                             static_cast<int>(sorted.size()));
  OrderState root = tree.Root();
  std::vector<TotalOrder> prefixes;
  WalkRendered(tree, &root, depth, variables, sorted,
               [&prefixes](const TotalOrder& prefix) {
                 prefixes.push_back(prefix);
                 return true;
               });
  return prefixes;
}

void ForEachCompletion(const std::vector<std::string>& variables, int depth,
                       TotalOrder prefix,
                       const std::function<bool(const TotalOrder&)>& fn) {
  std::vector<Rational> constants;
  for (const OrderBlock& block : prefix.blocks) {
    if (block.constant.has_value()) constants.push_back(*block.constant);
  }
  OrderState state;
  StateOfOrder(prefix, variables, constants, &state);
  state.placed = depth;
  const OrderEnumerator tree(static_cast<int>(variables.size()),
                             static_cast<int>(constants.size()));
  WalkRendered(tree, &state, tree.num_variables(), variables, constants, fn);
}

void ForEachTotalOrder(const std::vector<std::string>& variables,
                       const std::vector<Rational>& constants,
                       const std::function<bool(const TotalOrder&)>& fn) {
  const std::vector<Rational> sorted = OrderConstants(constants);
  const OrderEnumerator tree(static_cast<int>(variables.size()),
                             static_cast<int>(sorted.size()));
  OrderState root = tree.Root();
  WalkRendered(tree, &root, tree.num_variables(), variables, sorted, fn);
}

std::vector<TotalOrder> EnumerateTotalOrders(
    const std::vector<std::string>& variables,
    const std::vector<Rational>& constants) {
  return TotalOrderPrefixes(variables, constants,
                            static_cast<int>(variables.size()));
}

void ForEachSatisfyingOrder(const std::vector<std::string>& variables,
                            const std::vector<Rational>& constants,
                            const std::vector<Comparison>& axioms,
                            const std::function<bool(const TotalOrder&)>& fn,
                            OrderEnumerationStats* stats) {
  OrderEnumerationStats local;
  if (stats == nullptr) stats = &local;
  const std::vector<Rational> sorted = OrderConstants(constants);
  std::vector<OrderAxiom> compiled;
  if (internal::SatisfyingOrderFallbackForcedForTest() ||
      !CompileOrderAxioms(variables, sorted, axioms, &compiled)) {
    // Forced, or an axiom over a term outside the universe: only the
    // reference's solver check at every leaf decides it.
    internal::ForEachSatisfyingOrderLegacy(variables, sorted, axioms, fn,
                                           stats);
    return;
  }
  const OrderEnumerator tree(static_cast<int>(variables.size()),
                             static_cast<int>(sorted.size()), compiled);
  OrderState root = tree.Root();
  WalkRendered(
      tree, &root, tree.num_variables(), variables, sorted,
      [&](const TotalOrder& order) {
        ++stats->orders_emitted;
        return fn(order);
      },
      stats);
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
  const std::vector<Rational> sorted = OrderConstants(constants);
  const OrderEnumerator tree(static_cast<int>(variables.size()),
                             static_cast<int>(sorted.size()));
  OrderState root = tree.Root();
  WalkRendered(
      tree, &root, tree.num_variables(), variables, sorted,
      [&](const TotalOrder& order) {
        if (!AcSolver::SatisfiedBy(axioms, order.ToAssignment())) return true;
        ++stats->orders_emitted;
        return fn(order);
      },
      stats);
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

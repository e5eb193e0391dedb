#ifndef CQAC_ENGINE_CANONICAL_H_
#define CQAC_ENGINE_CANONICAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/query.h"
#include "constraints/id_query.h"
#include "constraints/orders.h"
#include "engine/database.h"
#include "engine/evaluate.h"

namespace cqac {

/// A canonical database of a query: the query's ordinary subgoals with
/// variables frozen to concrete rationals under some total order, together
/// with the bookkeeping needed to map values back to terms ("unfreezing").
struct CanonicalDatabase {
  Database db;

  /// The freezing assignment (query variable -> value).
  std::map<std::string, Rational> assignment;

  /// The frozen head tuple of the query.  Empty for boolean queries.
  Tuple frozen_head;

  /// Maps each value back to the representative term of its order block:
  /// the block's constant if it has one, otherwise its first variable.
  /// Values not in the map unfreeze to themselves (as constants).
  std::map<Rational, Term> unfreeze;

  /// Unfreezes a value to a term.
  Term Unfreeze(const Rational& value) const;

  /// Unfreezes a ground atom (e.g. a view tuple computed on `db`) back to
  /// an atom over the query's variables.
  Atom UnfreezeAtom(const Atom& ground) const;
};

/// Freezes `q`'s ordinary subgoals under `order`, which must cover every
/// variable of `q` (typically produced by ForEachTotalOrder over
/// `q.AllVariables()` and a superset of `q`'s constants).  The resulting
/// database ignores `q`'s comparisons; whether the order satisfies them is
/// the caller's concern (e.g. via AcSolver::SatisfiedBy or by evaluating
/// `q` on the result).
CanonicalDatabase FreezeQuery(const ConjunctiveQuery& q,
                              const TotalOrder& order);

/// The single canonical database of `q` that assigns every variable a
/// distinct value (Section 2.5 of the paper: "the canonical database of the
/// query Q when ignoring the ACs").  Fresh values are integers chosen above
/// all constants occurring in `q`.
CanonicalDatabase FreezeQueryDistinct(const ConjunctiveQuery& q);

/// Compiled canonical-database freezing for the Phase-1 and containment
/// hot loops: the query's subgoals and head are lowered once to (relation
/// id, value-slot) form, and each Freeze call fills a FlatInstance from an
/// order's block values without rebuilding map/set structures.  After the
/// first few calls no allocation occurs per order.
///
/// The hot path reads orders in index form (OrderState, as
/// OrderEnumerator walks them) over a layout bound once with BindLayout:
/// which variable each state position is and which constants there are.
/// No name is looked up per order.  Block values depend only on the block
/// count and the constants' positions; they are computed once per such
/// signature and cached.
///
/// Freezing is *incremental*: the row layout (which subgoal owns which row
/// of which relation) is fixed at construction, so consecutive Freeze
/// calls diff the new variable values against the previous order's and
/// rewrite, in place, only the rows whose variables moved.  Per-relation
/// change epochs let callers cache work derived from relations an order
/// change did not touch (see rewriting/view_tuples.h).  The produced
/// instance is a pure function of the current order — identical to what a
/// from-scratch FreezeFull yields — regardless of the call history.
///
/// Produces exactly the tuples and frozen head FreezeQuery would (same
/// value scheme as TotalOrder::BlockValues); the assignment and unfreeze
/// maps are replaced by slot/block accessors.  Not thread-safe; use one
/// per thread.
class CanonicalFreezer {
 public:
  explicit CanonicalFreezer(const ConjunctiveQuery& q)
      : CanonicalFreezer(IdQuery(q)) {}

  /// Compiles the query in id form; same freezer as from its ToQuery().
  explicit CanonicalFreezer(const IdQuery& q);

  // block_values() points into the freezer itself.
  CanonicalFreezer(const CanonicalFreezer&) = delete;
  CanonicalFreezer& operator=(const CanonicalFreezer&) = delete;

  /// The representative id of variable `name` (see block_rep_ids()),
  /// interned when the query lacks it.
  uint32_t VariableRepId(const std::string& name);

  /// The representative id of variable `id` of the IdQuery this freezer
  /// was compiled from.
  uint32_t TermRepId(int id) const { return term_rep_ids_[id]; }

  /// Fixes the layout of the states Freeze(const OrderState&) reads:
  /// variable i of a state is the variable with representative id
  /// `var_reps[i]`, and constant k is `constants[k]` (ascending,
  /// distinct).  A variable without a slot takes part only in
  /// block_rep_ids().  Cheap when the constants are the bound ones.
  void BindLayout(const std::vector<uint32_t>& var_reps,
                  const std::vector<Rational>& constants);

  /// Freezes under `state`, a complete order over the bound layout, which
  /// must place every variable of the query.  The returned instance and
  /// frozen_head() stay valid until the next Freeze call.  Delta form:
  /// only rows touching changed variables are rewritten.
  const FlatInstance& Freeze(const OrderState& state);

  /// An adapter over the state path: binds `order`'s own layout (its
  /// variables in block order, its constants), then freezes it.  `order`
  /// must cover every variable of the query.
  const FlatInstance& Freeze(const TotalOrder& order);

  /// Freezes `order` from scratch (clear + refill), marking every
  /// relation changed.  Same result as Freeze; the reference path that
  /// phase1_incremental_test holds the delta form to.
  const FlatInstance& FreezeFull(const TotalOrder& order);

  /// The frozen head tuple of the last Freeze.  Empty for boolean queries.
  const Tuple& frozen_head() const { return frozen_head_; }

  /// The instance last produced by Freeze/FreezeFull.
  const FlatInstance& instance() const { return instance_; }

  /// Monotone counter: the number of Freeze/FreezeFull calls so far.
  uint64_t epoch() const { return epoch_; }

  /// The epoch at which relation `rel`'s rows last changed (0 = never).
  /// `rel` must be a relation id of instance().
  uint64_t RelationEpoch(uint32_t rel) const { return rel_epochs_[rel]; }

  /// Slot map of the compiled query's variables (body and head variables;
  /// variables occurring only in comparisons have no slot).
  const std::unordered_map<std::string, uint32_t>& var_slots() const {
    return var_slots_;
  }
  /// Slot index -> variable name (deterministic iteration order).
  const std::vector<std::string>& slot_names() const { return slot_names_; }
  /// Slot index -> frozen value under the last order.
  const std::vector<Rational>& var_values() const { return var_values_; }
  /// Slot index -> index of the last order's block holding the variable.
  const std::vector<uint32_t>& var_blocks() const { return var_blocks_; }

  /// The last order's per-block values (strictly increasing).
  const std::vector<Rational>& block_values() const { return *block_values_; }

  /// Constant representatives' ids start here; every variable id is below.
  static constexpr uint32_t kConstantRepId = 0x80000000u;
  /// RepIdOfValue's answer for a value outside every block.
  static constexpr uint32_t kOutsideBlocks = 0xFFFFFFFFu;

  /// The last order's per-block representative ids.  A block's
  /// representative is its constant, else its lowest-index variable in
  /// the bound layout (a TotalOrder's first variable); equal ids
  /// mean equal representatives for the freezer's lifetime.  A
  /// variable's id is its slot; variables without a slot (those only in
  /// comparisons, in comparison order, then any variable the query
  /// lacks) number on from slot_names().size().  A constant's id is
  /// kConstantRepId + k, k numbering constants in the order the freezer
  /// first saw them: ascending, when every order holds the same
  /// constants, so freezers of one run agree.
  const std::vector<uint32_t>& block_rep_ids() const { return block_rep_ids_; }

  /// The representative id of the block holding `value` in the last
  /// order, or kOutsideBlocks.  Integer form of UnfreezeValue.
  uint32_t RepIdOfValue(const Rational& value) const;

  /// Maps a value of the last frozen instance back to its order block's
  /// representative term; values outside every block (e.g. constants
  /// introduced by a view head) unfreeze to themselves.  Same semantics as
  /// CanonicalDatabase::Unfreeze.
  Term UnfreezeValue(const Rational& value) const;

 private:
  struct CompiledTerm {
    bool is_const;
    uint32_t slot;   // variable slot when !is_const
    Rational value;  // constant value when is_const
  };
  struct CompiledSubgoal {
    uint32_t relation;
    uint32_t row;  // this subgoal's fixed row index within its relation
    std::vector<CompiledTerm> terms;
  };

  /// Freeze's from-scratch form, taken on the first call.
  const FlatInstance& FreezeFull(const OrderState& state);
  /// Refreshes block_values_/block_rep_ids_/var_blocks_/var_values_ from
  /// `state`; when `track` is set, changed_ records which slots moved.
  void LoadState(const OrderState& state, bool track);
  /// The block values of `state`'s signature, from the cache.
  const std::vector<Rational>* BlockValuesFor(const OrderState& state);
  /// BindLayout's constants half.
  void BindConstants(const std::vector<Rational>& constants);
  /// Binds `order`'s own layout, its state into adapter_state_.
  void BindOrder(const TotalOrder& order);
  void RebuildHead();
  /// The representative term behind a block_rep_ids() entry.
  Term RepTerm(uint32_t id) const;
  /// Rep id of a variable without a slot; interns it if new.
  uint32_t UnslottedVariableRepId(const std::string& name);
  /// Rep id of constant `value`, expected at position `hint`.
  uint32_t ConstantRepId(const Rational& value, size_t hint);

  std::unordered_map<std::string, uint32_t> var_slots_;
  std::vector<std::string> slot_names_;
  std::vector<CompiledSubgoal> subgoals_;
  std::vector<CompiledTerm> head_;
  FlatInstance instance_;
  std::vector<uint32_t> term_rep_ids_;  // IdQuery term id -> rep id
  // The bound layout.
  std::vector<uint32_t> var_reps_;   // state variable -> rep id
  std::vector<Rational> constants_;  // state constant -> value
  std::vector<uint32_t> const_reps_;  // state constant -> rep id
  // Block values per signature (block count, constant positions), packed
  // six bits per field; signatures that do not fit are computed uncached.
  std::unordered_map<uint64_t, std::vector<Rational>> value_cache_;
  uint64_t value_key_ = 0;
  bool have_value_key_ = false;
  std::vector<Rational> uncached_values_;
  const std::vector<Rational>* block_values_ = &uncached_values_;
  std::vector<uint32_t> block_rep_ids_;
  std::unordered_map<std::string, uint32_t> unslotted_ids_;
  std::vector<std::string> unslotted_names_;  // id - slot count -> name
  std::vector<Rational> rep_constants_;  // constant k of kConstantRepId + k
  std::vector<Rational> var_values_;  // slot -> value under current order
  std::vector<uint32_t> var_blocks_;  // slot -> block index
  std::vector<char> changed_;         // slot -> moved in the last delta?
  std::vector<Rational> row_;
  Tuple frozen_head_;
  uint64_t epoch_ = 0;
  std::vector<uint64_t> rel_epochs_;  // relation id -> last-changed epoch
  // The TotalOrder adapters' constants and state.
  std::vector<Rational> adapter_constants_;
  OrderState adapter_state_;
};

}  // namespace cqac

#endif  // CQAC_ENGINE_CANONICAL_H_

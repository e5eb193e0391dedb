#include "engine/canonical.h"

#include <algorithm>

#include "obs/metrics.h"

namespace cqac {

Term CanonicalDatabase::Unfreeze(const Rational& value) const {
  auto it = unfreeze.find(value);
  return it == unfreeze.end() ? Term::Constant(value) : it->second;
}

Atom CanonicalDatabase::UnfreezeAtom(const Atom& ground) const {
  std::vector<Term> args;
  args.reserve(ground.args().size());
  for (const Term& t : ground.args()) {
    args.push_back(t.IsConstant() ? Unfreeze(t.value()) : t);
  }
  return Atom(ground.predicate(), std::move(args));
}

namespace {

CanonicalDatabase FreezeWithAssignment(
    const ConjunctiveQuery& q, std::map<std::string, Rational> assignment,
    std::map<Rational, Term> unfreeze) {
  CanonicalDatabase result;
  result.assignment = std::move(assignment);
  result.unfreeze = std::move(unfreeze);
  auto freeze_term = [&result](const Term& t) -> Rational {
    return t.IsConstant() ? t.value() : result.assignment.at(t.name());
  };
  for (const Atom& atom : q.body()) {
    Tuple tuple;
    tuple.reserve(atom.args().size());
    for (const Term& t : atom.args()) tuple.push_back(freeze_term(t));
    result.db.Insert(atom.predicate(), std::move(tuple));
  }
  result.frozen_head.reserve(q.head().args().size());
  for (const Term& t : q.head().args()) {
    result.frozen_head.push_back(freeze_term(t));
  }
  return result;
}

}  // namespace

CanonicalDatabase FreezeQuery(const ConjunctiveQuery& q,
                              const TotalOrder& order) {
  std::map<std::string, Rational> assignment = order.ToAssignment();
  std::map<Rational, Term> unfreeze;
  for (const OrderBlock& block : order.blocks) {
    Rational value;
    if (block.constant.has_value()) {
      value = *block.constant;
    } else if (!block.variables.empty()) {
      value = assignment.at(block.variables.front());
    } else {
      continue;
    }
    unfreeze.emplace(value, block.Representative());
  }
  return FreezeWithAssignment(q, std::move(assignment), std::move(unfreeze));
}

CanonicalFreezer::CanonicalFreezer(const IdQuery& q) {
  // Slots number the variables in first occurrence over body, then head.
  std::vector<int> slot_of(q.core.size(), -1);
  auto compile_term = [this, &q, &slot_of](int id) {
    CompiledTerm ct;
    const Term& t = q.core.term(id);
    ct.is_const = t.IsConstant();
    if (ct.is_const) {
      ct.value = t.value();
      ct.slot = 0;
    } else {
      if (slot_of[id] < 0) {
        slot_of[id] = static_cast<int>(slot_names_.size());
        var_slots_.emplace(t.name(), static_cast<uint32_t>(slot_of[id]));
        slot_names_.push_back(t.name());
      }
      ct.slot = static_cast<uint32_t>(slot_of[id]);
    }
    return ct;
  };
  std::vector<uint32_t> rows_per_relation;
  subgoals_.reserve(q.body.size());
  for (const IdAtom& atom : q.body) {
    CompiledSubgoal sg;
    sg.relation = instance_.RelationId(q.preds[atom.pred],
                                       static_cast<int>(atom.args.size()));
    if (rows_per_relation.size() <= sg.relation) {
      rows_per_relation.resize(sg.relation + 1, 0);
    }
    sg.row = rows_per_relation[sg.relation]++;
    sg.terms.reserve(atom.args.size());
    for (const int t : atom.args) sg.terms.push_back(compile_term(t));
    subgoals_.push_back(std::move(sg));
  }
  head_.reserve(q.head.size());
  for (const int t : q.head) head_.push_back(compile_term(t));
  term_rep_ids_.assign(q.core.size(), kOutsideBlocks);
  for (int id = 0; id < q.core.size(); ++id) {
    if (slot_of[id] >= 0) {
      term_rep_ids_[id] = static_cast<uint32_t>(slot_of[id]);
    }
  }
  for (const IdComparison& c : q.comparisons) {
    for (const int id : {c.lhs, c.rhs}) {
      if (q.core.term(id).IsVariable() && slot_of[id] < 0) {
        term_rep_ids_[id] = UnslottedVariableRepId(q.core.term(id).name());
      }
    }
  }
  var_values_.resize(var_slots_.size());
  var_blocks_.resize(var_slots_.size());
  rel_epochs_.resize(instance_.NumRelations(), 0);
}

uint32_t CanonicalFreezer::VariableRepId(const std::string& name) {
  const auto it = var_slots_.find(name);
  return it != var_slots_.end() ? it->second : UnslottedVariableRepId(name);
}

void CanonicalFreezer::BindLayout(const std::vector<uint32_t>& var_reps,
                                  const std::vector<Rational>& constants) {
  var_reps_ = var_reps;
  BindConstants(constants);
}

void CanonicalFreezer::BindConstants(const std::vector<Rational>& constants) {
  if (constants == constants_) return;
  constants_ = constants;
  const_reps_.resize(constants.size());
  for (size_t k = 0; k < constants.size(); ++k) {
    const_reps_[k] = ConstantRepId(constants[k], k);
  }
  // Cached values belong to the old constants; keep the last order's.
  if (block_values_ != &uncached_values_) uncached_values_ = *block_values_;
  block_values_ = &uncached_values_;
  value_cache_.clear();
  have_value_key_ = false;
}

const std::vector<Rational>* CanonicalFreezer::BlockValuesFor(
    const OrderState& state) {
  constexpr size_t kMaxSignatures = 4096;
  if (state.num_blocks >= 64 || state.const_block.size() > 9) {
    FillBlockValues(state.num_blocks, state.const_block, constants_,
                    &uncached_values_);
    have_value_key_ = false;
    return &uncached_values_;
  }
  uint64_t key = static_cast<uint64_t>(state.num_blocks);
  for (const int b : state.const_block) {
    key = key << 6 | static_cast<uint64_t>(b);
  }
  if (have_value_key_ && key == value_key_) return block_values_;
  if (value_cache_.size() >= kMaxSignatures) value_cache_.clear();
  const auto [it, inserted] = value_cache_.try_emplace(key);
  if (inserted) {
    FillBlockValues(state.num_blocks, state.const_block, constants_,
                    &it->second);
  }
  value_key_ = key;
  have_value_key_ = true;
  return &it->second;
}

void CanonicalFreezer::LoadState(const OrderState& state, bool track) {
  block_values_ = BlockValuesFor(state);
  const std::vector<Rational>& values = *block_values_;
  block_rep_ids_.assign(state.num_blocks, kOutsideBlocks);
  for (size_t k = 0; k < state.const_block.size(); ++k) {
    block_rep_ids_[state.const_block[k]] = const_reps_[k];
  }
  if (track) changed_.assign(var_values_.size(), 0);
  const size_t slots = slot_names_.size();
  for (size_t i = 0; i < var_reps_.size(); ++i) {
    const int b = state.var_block[i];
    const uint32_t rep = var_reps_[i];
    // Variables come in index order, so the first one seen is the lowest.
    if (block_rep_ids_[b] == kOutsideBlocks) block_rep_ids_[b] = rep;
    if (rep >= slots) continue;
    var_blocks_[rep] = static_cast<uint32_t>(b);
    const Rational& value = values[b];
    if (!track) {
      var_values_[rep] = value;
    } else if (var_values_[rep] != value) {
      var_values_[rep] = value;
      changed_[rep] = 1;
    }
  }
}

void CanonicalFreezer::BindOrder(const TotalOrder& order) {
  var_reps_.clear();
  adapter_constants_.clear();
  OrderState& state = adapter_state_;
  state.var_block.clear();
  state.const_block.clear();
  for (size_t b = 0; b < order.blocks.size(); ++b) {
    const OrderBlock& block = order.blocks[b];
    for (const std::string& v : block.variables) {
      var_reps_.push_back(VariableRepId(v));
      state.var_block.push_back(static_cast<int>(b));
    }
    if (block.constant.has_value()) {
      adapter_constants_.push_back(*block.constant);
      state.const_block.push_back(static_cast<int>(b));
    }
  }
  state.num_blocks = static_cast<int>(order.blocks.size());
  state.placed = static_cast<int>(state.var_block.size());
  BindConstants(adapter_constants_);
}

const FlatInstance& CanonicalFreezer::Freeze(const TotalOrder& order) {
  BindOrder(order);
  return Freeze(adapter_state_);
}

const FlatInstance& CanonicalFreezer::FreezeFull(const TotalOrder& order) {
  BindOrder(order);
  return FreezeFull(adapter_state_);
}

void CanonicalFreezer::RebuildHead() {
  frozen_head_.clear();
  for (const CompiledTerm& t : head_) {
    frozen_head_.push_back(t.is_const ? t.value : var_values_[t.slot]);
  }
}

const FlatInstance& CanonicalFreezer::Freeze(const OrderState& state) {
  if (epoch_ == 0) return FreezeFull(state);
  LoadState(state, /*track=*/true);
  ++epoch_;
  int64_t rewritten = 0;
  for (const CompiledSubgoal& sg : subgoals_) {
    bool touched = false;
    for (const CompiledTerm& t : sg.terms) {
      if (!t.is_const && changed_[t.slot]) {
        touched = true;
        break;
      }
    }
    if (!touched) continue;
    Rational* row = instance_.MutableRow(sg.relation, sg.row);
    for (size_t k = 0; k < sg.terms.size(); ++k) {
      const CompiledTerm& t = sg.terms[k];
      row[k] = t.is_const ? t.value : var_values_[t.slot];
    }
    rel_epochs_[sg.relation] = epoch_;
    ++rewritten;
  }
  RebuildHead();
  if (obs::MetricsActive()) {
    // How much the delta form saves: rows actually rewritten vs the
    // full-refreeze row count tracked in FreezeFull.
    static obs::Counter& delta_rows =
        obs::MetricsRegistry::Global().counter("freezer.delta_rows");
    delta_rows.Add(rewritten);
  }
  return instance_;
}

const FlatInstance& CanonicalFreezer::FreezeFull(const OrderState& state) {
  LoadState(state, /*track=*/false);
  ++epoch_;
  instance_.Clear();
  for (const CompiledSubgoal& sg : subgoals_) {
    row_.clear();
    for (const CompiledTerm& t : sg.terms) {
      row_.push_back(t.is_const ? t.value : var_values_[t.slot]);
    }
    instance_.AddRow(sg.relation, row_.data());
  }
  for (uint64_t& e : rel_epochs_) e = epoch_;
  RebuildHead();
  if (obs::MetricsActive()) {
    static obs::Counter& full =
        obs::MetricsRegistry::Global().counter("freezer.full_freezes");
    full.Add(1);
    static obs::Counter& rows =
        obs::MetricsRegistry::Global().counter("freezer.full_rows");
    rows.Add(static_cast<int64_t>(subgoals_.size()));
  }
  return instance_;
}

uint32_t CanonicalFreezer::UnslottedVariableRepId(const std::string& name) {
  const auto [it, inserted] = unslotted_ids_.try_emplace(
      name,
      static_cast<uint32_t>(slot_names_.size() + unslotted_ids_.size()));
  if (inserted) unslotted_names_.push_back(name);
  return it->second;
}

uint32_t CanonicalFreezer::ConstantRepId(const Rational& value, size_t hint) {
  if (hint < rep_constants_.size() && rep_constants_[hint] == value) {
    return kConstantRepId + static_cast<uint32_t>(hint);
  }
  auto it = std::find(rep_constants_.begin(), rep_constants_.end(), value);
  if (it == rep_constants_.end()) {
    rep_constants_.push_back(value);
    it = rep_constants_.end() - 1;
  }
  return kConstantRepId + static_cast<uint32_t>(it - rep_constants_.begin());
}

uint32_t CanonicalFreezer::RepIdOfValue(const Rational& value) const {
  const auto it =
      std::lower_bound(block_values_->begin(), block_values_->end(), value);
  if (it != block_values_->end() && *it == value) {
    return block_rep_ids_[it - block_values_->begin()];
  }
  return kOutsideBlocks;
}

Term CanonicalFreezer::RepTerm(uint32_t id) const {
  if (id >= kConstantRepId) {
    return Term::Constant(rep_constants_[id - kConstantRepId]);
  }
  return Term::Variable(id < slot_names_.size()
                            ? slot_names_[id]
                            : unslotted_names_[id - slot_names_.size()]);
}

Term CanonicalFreezer::UnfreezeValue(const Rational& value) const {
  const uint32_t id = RepIdOfValue(value);
  return id == kOutsideBlocks ? Term::Constant(value) : RepTerm(id);
}

CanonicalDatabase FreezeQueryDistinct(const ConjunctiveQuery& q) {
  // Fresh integer values strictly above every constant in the query, so no
  // accidental collisions with constants occur.
  Rational base(1);
  for (const Rational& c : q.Constants()) {
    if (c >= base) base = c + Rational(1);
  }
  std::map<std::string, Rational> assignment;
  std::map<Rational, Term> unfreeze;
  int offset = 0;
  for (const std::string& v : q.AllVariables()) {
    const Rational value = base + Rational(offset++);
    assignment.emplace(v, value);
    unfreeze.emplace(value, Term::Variable(v));
  }
  return FreezeWithAssignment(q, std::move(assignment), std::move(unfreeze));
}

}  // namespace cqac

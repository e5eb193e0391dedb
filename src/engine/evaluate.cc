#include "engine/evaluate.h"

#include <algorithm>

namespace cqac {

// ---------------------------------------------------------------------------
// FlatInstance

uint32_t FlatInstance::RelationId(const std::string& predicate, int arity) {
  const uint32_t name_id = names_.Intern(predicate);
  if (name_id >= keys_.size()) keys_.resize(name_id + 1);
  for (const auto& [a, rel] : keys_[name_id]) {
    if (a == arity) return rel;
  }
  const uint32_t rel = static_cast<uint32_t>(relations_.size());
  relations_.emplace_back();
  relations_.back().arity = arity;
  keys_[name_id].push_back({arity, rel});
  return rel;
}

uint32_t FlatInstance::FindRelation(const std::string& predicate,
                                    int arity) const {
  const uint32_t name_id = names_.Find(predicate);
  if (name_id == SymbolInterner::kNotFound) return SymbolInterner::kNotFound;
  for (const auto& [a, rel] : keys_[name_id]) {
    if (a == arity) return rel;
  }
  return SymbolInterner::kNotFound;
}

// ---------------------------------------------------------------------------
// Per-run setup

namespace {

inline uint64_t CombineHash(uint64_t h, const Rational& v) {
  h ^= static_cast<uint64_t>(v.Hash());
  return h * 0x100000001b3ULL;  // FNV-1a style mix
}

}  // namespace

void PreparedQuery::BuildIndex(size_t depth, Scratch* scratch) const {
  Scratch::DepthState& ds = scratch->depths[depth];
  const QueryPlan::Subgoal& plan = plan_.subgoals[depth];
  ds.index.clear();
  for (uint32_t i = 0; i < ds.rows.size(); ++i) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const uint32_t col : plan.entry_cols) {
      h = CombineHash(h, ds.rows[i][col]);
    }
    ds.index[h].push_back(i);
  }
}

uint64_t PreparedQuery::ProbeHash(const QueryPlan::Subgoal& plan,
                                  const Scratch& scratch) const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const uint32_t col : plan.entry_cols) {
    const QueryPlan::Op& op = plan.ops[col];
    h = CombineHash(h, op.kind == QueryPlan::Op::kConst
                           ? plan_.constants[op.slot]
                           : scratch.values[op.slot]);
  }
  return h;
}

bool PreparedQuery::Run(const Database& db, const Tuple* target, Relation* out,
                        Scratch* scratch) const {
  scratch->depths.resize(plan_.subgoals.size());
  for (size_t d = 0; d < plan_.subgoals.size(); ++d) {
    Scratch::DepthState& ds = scratch->depths[d];
    ds.rows.clear();
    const Relation& rel = db.Get(plan_.subgoals[d].predicate);
    for (const Tuple& tuple : rel.tuples()) {
      if (static_cast<int>(tuple.size()) == plan_.subgoals[d].arity) {
        ds.rows.push_back(tuple.data());
      }
    }
    if (IndexDepth(d, scratch)) BuildIndex(d, scratch);
  }
  return RunCommon(target, out, scratch);
}

void PreparedQuery::ResolveRelations(const FlatInstance& inst,
                                     std::vector<uint32_t>* relations) const {
  relations->clear();
  for (const QueryPlan::Subgoal& sg : plan_.subgoals) {
    relations->push_back(inst.FindRelation(sg.predicate, sg.arity));
  }
}

bool PreparedQuery::Run(const FlatInstance& inst, const Tuple* target,
                        Relation* out, Scratch* scratch) const {
  ResolveRelations(inst, &scratch->relations);
  return Run(inst, scratch->relations, target, out, scratch);
}

bool PreparedQuery::Run(const FlatInstance& inst,
                        const std::vector<uint32_t>& relations,
                        const Tuple* target, Relation* out,
                        Scratch* scratch) const {
  scratch->depths.resize(plan_.subgoals.size());
  for (size_t d = 0; d < plan_.subgoals.size(); ++d) {
    Scratch::DepthState& ds = scratch->depths[d];
    ds.rows.clear();
    const uint32_t rel = relations[d];
    if (rel != SymbolInterner::kNotFound) {
      const size_t count = inst.RowCount(rel);
      for (size_t i = 0; i < count; ++i) ds.rows.push_back(inst.Row(rel, i));
    }
    if (IndexDepth(d, scratch)) BuildIndex(d, scratch);
  }
  return RunCommon(target, out, scratch);
}

// ---------------------------------------------------------------------------
// Search

bool PreparedQuery::RunCommon(const Tuple* target, Relation* out,
                              Scratch* scratch) const {
  scratch->values.resize(plan_.num_vars);
  scratch->bound.assign(plan_.num_vars, 0);
  scratch->extra_values.resize(plan_.num_vars);
  scratch->extra_bound.assign(plan_.num_vars, 0);
  scratch->extra_touched.clear();
  scratch->target = target;
  scratch->out = out;
  scratch->found = false;
  if (CheckTriggers(0, *scratch)) Search(0, scratch);
  return scratch->found;
}

bool PreparedQuery::CheckTriggers(size_t depth, const Scratch& scratch) const {
  for (const int c : plan_.triggers[depth]) {
    const QueryPlan::ComparisonRef& comp = plan_.comparisons[c];
    const Rational& a =
        comp.lhs.is_const ? comp.lhs.value : scratch.values[comp.lhs.var];
    const Rational& b =
        comp.rhs.is_const ? comp.rhs.value : scratch.values[comp.rhs.var];
    if (!EvalCompOp(a, comp.op, b)) return false;
  }
  return true;
}

bool PreparedQuery::Search(size_t depth, Scratch* scratch) const {
  if (depth == plan_.subgoals.size()) return EmitHead(scratch);
  const QueryPlan::Subgoal& plan = plan_.subgoals[depth];
  Scratch::DepthState& ds = scratch->depths[depth];

  auto try_row = [&](const Rational* row) -> bool {
    bool ok = true;
    for (int i = 0; i < plan.arity && ok; ++i) {
      const QueryPlan::Op& op = plan.ops[i];
      const Rational& v = row[i];
      switch (op.kind) {
        case QueryPlan::Op::kConst:
          ok = plan_.constants[op.slot] == v;
          break;
        case QueryPlan::Op::kBind:
          scratch->values[op.slot] = v;
          scratch->bound[op.slot] = 1;
          break;
        case QueryPlan::Op::kCheck:
          ok = scratch->values[op.slot] == v;
          break;
      }
    }
    bool keep_going = true;
    if (ok && CheckTriggers(depth + 1, *scratch)) {
      keep_going = Search(depth + 1, scratch);
    }
    for (const uint32_t v : plan.bind_vars) scratch->bound[v] = 0;
    return keep_going;
  };

  if (ds.use_index) {
    const auto it = ds.index.find(ProbeHash(plan, *scratch));
    if (it == ds.index.end()) return true;
    for (const uint32_t i : it->second) {
      if (!try_row(ds.rows[i])) return false;
    }
    return true;
  }
  for (const Rational* row : ds.rows) {
    if (!try_row(row)) return false;
  }
  return true;
}

/// Resolves comparisons whose variables no ordinary subgoal bound:
/// propagates equalities to fixpoint, then evaluates what remains.
/// Returns false when a pending comparison fails or stays undetermined
/// (the latter means the query is genuinely unsafe for this assignment).
bool PreparedQuery::ResolvePending(Scratch* scratch) const {
  scratch->unresolved = plan_.pending;
  auto lookup = [this, scratch](const QueryPlan::TermRef& t, Rational* out) {
    if (t.is_const) {
      *out = t.value;
      return true;
    }
    if (scratch->bound[t.var]) {
      *out = scratch->values[t.var];
      return true;
    }
    if (scratch->extra_bound[t.var]) {
      *out = scratch->extra_values[t.var];
      return true;
    }
    return false;
  };
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < scratch->unresolved.size();) {
      const QueryPlan::ComparisonRef& comp =
          plan_.comparisons[scratch->unresolved[i]];
      Rational a, b;
      const bool has_a = lookup(comp.lhs, &a);
      const bool has_b = lookup(comp.rhs, &b);
      if (has_a && has_b) {
        if (!EvalCompOp(a, comp.op, b)) return false;
        scratch->unresolved.erase(scratch->unresolved.begin() + i);
        progress = true;
        continue;
      }
      if (comp.op == CompOp::kEq && (has_a || has_b)) {
        // Bind the undetermined side (necessarily a variable).
        const QueryPlan::TermRef& unbound = has_a ? comp.rhs : comp.lhs;
        scratch->extra_bound[unbound.var] = 1;
        scratch->extra_values[unbound.var] = has_a ? a : b;
        scratch->extra_touched.push_back(unbound.var);
        scratch->unresolved.erase(scratch->unresolved.begin() + i);
        progress = true;
        continue;
      }
      ++i;
    }
  }
  return scratch->unresolved.empty();
}

bool PreparedQuery::EmitHead(Scratch* scratch) const {
  // Reset ResolvePending's equality-derived bindings from the previous leaf.
  for (const uint32_t v : scratch->extra_touched) scratch->extra_bound[v] = 0;
  scratch->extra_touched.clear();
  if (!plan_.pending.empty() && !ResolvePending(scratch)) return true;
  Tuple& head = scratch->head_row;
  head.clear();
  for (const QueryPlan::TermRef& t : plan_.head) {
    if (t.is_const) {
      head.push_back(t.value);
    } else if (scratch->bound[t.var]) {
      head.push_back(scratch->values[t.var]);
    } else if (scratch->extra_bound[t.var]) {
      head.push_back(scratch->extra_values[t.var]);
    } else {
      return true;  // Unsafe head: emit nothing.
    }
  }
  if (scratch->target != nullptr && head == *scratch->target) {
    scratch->found = true;
    return false;  // Early exit.
  }
  if (scratch->out != nullptr) scratch->out->Insert(head);
  return true;
}

// ---------------------------------------------------------------------------
// Public entry points

Relation Evaluate(const ConjunctiveQuery& q, const Database& db) {
  Relation out;
  PreparedQuery::Scratch scratch;
  PreparedQuery(q).Run(db, nullptr, &out, &scratch);
  return out;
}

Relation Evaluate(const UnionQuery& q, const Database& db) {
  Relation out;
  PreparedQuery::Scratch scratch;
  for (const ConjunctiveQuery& disjunct : q.disjuncts()) {
    PreparedQuery(disjunct).Run(db, nullptr, &out, &scratch);
  }
  return out;
}

bool ComputesTuple(const ConjunctiveQuery& q, const Database& db,
                   const Tuple& head) {
  if (static_cast<int>(head.size()) != q.head().arity()) return false;
  PreparedQuery::Scratch scratch;
  return PreparedQuery(q).Run(db, &head, nullptr, &scratch);
}

bool ComputesTuple(const UnionQuery& q, const Database& db,
                   const Tuple& head) {
  PreparedQuery::Scratch scratch;
  for (const ConjunctiveQuery& disjunct : q.disjuncts()) {
    if (static_cast<int>(head.size()) != disjunct.head().arity()) continue;
    if (PreparedQuery(disjunct).Run(db, &head, nullptr, &scratch)) return true;
  }
  return false;
}

}  // namespace cqac

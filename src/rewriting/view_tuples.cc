#include "rewriting/view_tuples.h"

#include <algorithm>
#include <set>

#include "engine/evaluate.h"

namespace cqac {

ViewTuples ComputeViewTuples(const ViewSet& views,
                             const CanonicalDatabase& cdb) {
  ViewTuples result;
  for (const ConjunctiveQuery& view : views.views()) {
    const Relation output = Evaluate(view, cdb.db);
    std::vector<Tuple>& ground = result.ground[view.name()];
    std::vector<Atom>& unfrozen = result.unfrozen[view.name()];
    for (const Tuple& tuple : output.tuples()) {
      ground.push_back(tuple);
      std::vector<Term> args;
      args.reserve(tuple.size());
      for (const Rational& value : tuple) {
        args.push_back(cdb.Unfreeze(value));
      }
      unfrozen.push_back(Atom(view.name(), std::move(args)));
      ++result.total;
    }
  }
  return result;
}

bool IsMoreRelaxedForm(const Atom& more_relaxed, const Atom& tuple) {
  if (more_relaxed.predicate() != tuple.predicate() ||
      more_relaxed.arity() != tuple.arity()) {
    return false;
  }
  std::map<std::string, Term> mapping;
  for (int i = 0; i < more_relaxed.arity(); ++i) {
    const Term& from = more_relaxed.args()[i];
    const Term& to = tuple.args()[i];
    if (from.IsConstant()) {
      if (from != to) return false;
      continue;
    }
    auto [it, inserted] = mapping.emplace(from.name(), to);
    if (!inserted && it->second != to) return false;
  }
  return true;
}

bool MatchesFrozenViewTuple(const Atom& mcd_tuple, const ViewTuples& tuples,
                            const CanonicalDatabase& cdb) {
  auto it = tuples.ground.find(mcd_tuple.predicate());
  if (it == tuples.ground.end()) return false;
  for (const Tuple& ground : it->second) {
    if (static_cast<int>(ground.size()) != mcd_tuple.arity()) continue;
    std::map<std::string, Rational> free_bindings;
    bool ok = true;
    for (int i = 0; i < mcd_tuple.arity() && ok; ++i) {
      const Term& t = mcd_tuple.args()[i];
      if (t.IsConstant()) {
        ok = t.value() == ground[i];
        continue;
      }
      auto frozen = cdb.assignment.find(t.name());
      if (frozen != cdb.assignment.end()) {
        // Query variable: pinned to its canonical value.
        ok = frozen->second == ground[i];
        continue;
      }
      // Fresh/existential variable: free, but used consistently.
      auto [binding, inserted] = free_bindings.emplace(t.name(), ground[i]);
      if (!inserted) ok = binding->second == ground[i];
    }
    if (ok) return true;
  }
  return false;
}

ViewTupleEvaluator::ViewTupleEvaluator(const ViewSet& views) {
  views_.reserve(views.views().size());
  for (const ConjunctiveQuery& view : views.views()) {
    PerView pv{view.name(), PreparedQuery(view), {}, {}, {}, Relation(), 0};
    std::set<std::pair<std::string, int>> seen;
    for (const Atom& atom : view.body()) {
      if (seen.emplace(atom.predicate(), atom.arity()).second) {
        pv.referenced.emplace_back(atom.predicate(), atom.arity());
      }
    }
    by_name_[pv.name].push_back(static_cast<int>(views_.size()));
    views_.push_back(std::move(pv));
  }
}

void ViewTupleEvaluator::Refresh(const CanonicalFreezer& freezer) {
  if (!rel_ids_resolved_) {
    for (PerView& pv : views_) {
      pv.rel_ids.reserve(pv.referenced.size());
      for (const auto& [predicate, arity] : pv.referenced) {
        const uint32_t rel = freezer.instance().FindRelation(predicate, arity);
        // Relations absent from the query's instance stay empty forever;
        // they can never make the view stale.
        if (rel != SymbolInterner::kNotFound) pv.rel_ids.push_back(rel);
      }
      pv.plan.ResolveRelations(freezer.instance(), &pv.plan_relations);
    }
    rel_ids_resolved_ = true;
  }
  total_ = 0;
  for (PerView& pv : views_) {
    bool stale = pv.evaluated_epoch == 0;
    for (const uint32_t rel : pv.rel_ids) {
      if (stale) break;
      stale = freezer.RelationEpoch(rel) > pv.evaluated_epoch;
    }
    if (stale) {
      pv.output = Relation();
      pv.plan.Run(freezer.instance(), pv.plan_relations, nullptr, &pv.output,
                  &scratch_);
      pv.evaluated_epoch = freezer.epoch();
    }
    total_ += pv.output.size();
  }
}

const std::vector<int>* ViewTupleEvaluator::ViewsNamed(
    const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &it->second;
}

FrozenTupleMatcher::FrozenTupleMatcher(std::vector<Atom> tuples,
                                       const CanonicalFreezer& freezer)
    : freezer_(freezer) {
  std::map<std::string, int> index_by_key;
  std::map<std::string, int> class_by_key;
  patterns_.reserve(tuples.size());
  class_of_.reserve(tuples.size());
  for (const Atom& tuple : tuples) {
    Pattern pattern;
    pattern.positions.reserve(tuple.arity());
    std::map<std::string, std::vector<int>> fresh_positions;
    std::vector<int> pinned;
    for (int i = 0; i < tuple.arity(); ++i) {
      const Term& t = tuple.args()[i];
      Position pos;
      if (t.IsConstant()) {
        pos.kind = Position::kConst;
        pos.value = t.value();
        pinned.push_back(i);
      } else if (const auto it = freezer.var_slots().find(t.name());
                 it != freezer.var_slots().end()) {
        pos.kind = Position::kSlot;
        pos.slot = it->second;
        pinned.push_back(i);
      } else {
        pos.kind = Position::kFree;
        fresh_positions[t.name()].push_back(i);
      }
      pattern.positions.push_back(std::move(pos));
    }
    for (auto& [name, positions] : fresh_positions) {
      if (positions.size() >= 2) {
        pattern.equal_groups.push_back(std::move(positions));
      }
    }
    // Canonical group order (verdict-irrelevant), so renamed-apart tuples
    // land in the same verdict class.
    std::sort(pattern.equal_groups.begin(), pattern.equal_groups.end());
    std::string key = tuple.predicate() + "/" + std::to_string(tuple.arity());
    for (const int p : pinned) key += "," + std::to_string(p);
    const auto [it, inserted] =
        index_by_key.emplace(key, static_cast<int>(indexes_.size()));
    if (inserted) {
      IndexData index;
      index.name = tuple.predicate();
      index.arity = tuple.arity();
      index.pinned = std::move(pinned);
      indexes_.push_back(std::move(index));
    }
    pattern.index_id = it->second;

    // The verdict depends only on the pinned values and the fresh
    // equality classes, not on fresh-variable names: serialize those into
    // the class key.
    std::string class_key = std::move(key);
    for (const Position& pos : pattern.positions) {
      switch (pos.kind) {
        case Position::kConst:
          class_key += ";C" + pos.value.ToString();
          break;
        case Position::kSlot:
          class_key += ";S" + std::to_string(pos.slot);
          break;
        case Position::kFree:
          class_key += ";F";
          break;
      }
    }
    for (const std::vector<int>& group : pattern.equal_groups) {
      class_key += ";G";
      for (const int p : group) class_key += "," + std::to_string(p);
    }
    const auto [cls, cls_new] =
        class_by_key.emplace(std::move(class_key), num_classes_);
    if (cls_new) ++num_classes_;
    class_of_.push_back(cls->second);
    patterns_.push_back(std::move(pattern));
  }
}

void FrozenTupleMatcher::BindDatabase(const ViewTupleEvaluator& ev) {
  ev_ = &ev;
  for (IndexData& index : indexes_) {
    index.built = false;
  }
  verdicts_.assign(num_classes_, -1);
}

void FrozenTupleMatcher::BuildIndex(IndexData* index) {
  index->entries.clear();
  if (const std::vector<int>* named = ev_->ViewsNamed(index->name)) {
    for (const int v : *named) {
      for (const Tuple& ground : ev_->ground(v).tuples()) {
        if (static_cast<int>(ground.size()) != index->arity) continue;
        std::vector<Rational> key;
        key.reserve(index->pinned.size());
        for (const int p : index->pinned) key.push_back(ground[p]);
        index->entries.emplace_back(std::move(key), &ground);
      }
    }
  }
  std::sort(index->entries.begin(), index->entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  index->built = true;
}

bool FrozenTupleMatcher::Matches(size_t i) {
  signed char& verdict = verdicts_[class_of_[i]];
  if (verdict < 0) verdict = MatchesUncached(patterns_[i]) ? 1 : 0;
  return verdict != 0;
}

bool FrozenTupleMatcher::MatchesUncached(const Pattern& pattern) {
  IndexData& index = indexes_[pattern.index_id];
  if (!index.built) BuildIndex(&index);
  probe_.clear();
  for (const int p : index.pinned) {
    const Position& pos = pattern.positions[p];
    probe_.push_back(pos.kind == Position::kConst
                         ? pos.value
                         : freezer_.var_values()[pos.slot]);
  }
  const auto lo = std::lower_bound(
      index.entries.begin(), index.entries.end(), probe_,
      [](const auto& entry, const std::vector<Rational>& key) {
        return entry.first < key;
      });
  for (auto it = lo; it != index.entries.end() && it->first == probe_; ++it) {
    bool ok = true;
    for (const std::vector<int>& group : pattern.equal_groups) {
      const Tuple& ground = *it->second;
      const Rational& first = ground[group.front()];
      for (size_t g = 1; g < group.size() && ok; ++g) {
        ok = ground[group[g]] == first;
      }
      if (!ok) break;
    }
    if (ok) return true;
  }
  return false;
}

}  // namespace cqac

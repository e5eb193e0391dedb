#ifndef CQAC_ENGINE_EVALUATE_H_
#define CQAC_ENGINE_EVALUATE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/interner.h"
#include "ast/query.h"
#include "engine/database.h"
#include "engine/query_plan.h"

namespace cqac {

/// Evaluates a CQAC over a database instance under set semantics: the set
/// of head tuples produced by all satisfying assignments of the body
/// (ordinary subgoals matched against the database, comparisons evaluated
/// over the rationals).
///
/// The query must be safe; head positions holding constants emit those
/// constants.  For boolean queries the result is `{()}` (one empty tuple)
/// when the body is satisfiable on `db` and `{}` otherwise.
Relation Evaluate(const ConjunctiveQuery& q, const Database& db);

/// Evaluates a union of CQACs (the union of the disjuncts' results).
Relation Evaluate(const UnionQuery& q, const Database& db);

/// True iff `q`'s evaluation on `db` contains `head` — with early exit, so
/// this is much cheaper than `Evaluate(q, db).Contains(head)` when the
/// query has many satisfying assignments.
bool ComputesTuple(const ConjunctiveQuery& q, const Database& db,
                   const Tuple& head);

/// Union version of ComputesTuple.
bool ComputesTuple(const UnionQuery& q, const Database& db, const Tuple& head);

/// A database instance in flat form: per (predicate, arity), a row-major
/// value vector.  Canonical-database evaluation refills one of these per
/// total order without rebuilding `std::map`/`std::set` structures; Clear
/// keeps every relation's capacity, so steady-state refills don't allocate.
class FlatInstance {
 public:
  /// Drops all rows (and remembers relations, so ids stay stable).
  void Clear() {
    for (RelationData& r : relations_) r.values.clear();
  }

  /// The id of relation (`predicate`, `arity`), creating it when new.
  uint32_t RelationId(const std::string& predicate, int arity);

  /// The id of relation (`predicate`, `arity`), or SymbolInterner::kNotFound.
  uint32_t FindRelation(const std::string& predicate, int arity) const;

  /// Appends a row of `arity` values to relation `rel`.  Zero-arity
  /// relations store a placeholder per row so emptiness stays observable.
  void AddRow(uint32_t rel, const Rational* row) {
    RelationData& r = relations_[rel];
    if (r.arity == 0) {
      r.values.push_back(Rational(1));
    } else {
      r.values.insert(r.values.end(), row, row + r.arity);
    }
  }

  size_t RowCount(uint32_t rel) const {
    const RelationData& r = relations_[rel];
    return r.arity == 0 ? r.values.size() : r.values.size() / r.arity;
  }
  int Arity(uint32_t rel) const { return relations_[rel].arity; }
  const Rational* Row(uint32_t rel, size_t i) const {
    return relations_[rel].values.data() + i * relations_[rel].arity;
  }

  /// Mutable access to row `i` of relation `rel`, for patching values in
  /// place (delta freezing rewrites only the rows whose variables moved).
  /// Meaningless for zero-arity relations (rows hold no values).
  Rational* MutableRow(uint32_t rel, size_t i) {
    return relations_[rel].values.data() + i * relations_[rel].arity;
  }

  /// Number of relations created so far; valid relation ids are
  /// [0, NumRelations()).
  size_t NumRelations() const { return relations_.size(); }

 private:
  struct RelationData {
    int arity = 0;
    std::vector<Rational> values;  // row-major, size = arity * row count
  };

  SymbolInterner names_;
  // keys_[name_id] = list of (arity, relation id) for that predicate name.
  std::vector<std::vector<std::pair<int, uint32_t>>> keys_;
  std::vector<RelationData> relations_;
};

/// The evaluator over a compiled QueryPlan: evaluates tuple at a time over
/// `Rational` values, against either a generic `Database` or a row-major
/// `FlatInstance`.  It is the one engine for canonical databases (the
/// Phase-1 keep test, view tuples, and containment).
///
/// PreparedQuery is immutable after construction and safe to share across
/// threads; all per-run state lives in a caller-owned Scratch.  Hash
/// indexes on each subgoal's bound columns are built once per (query, db)
/// run and only for relations large enough to repay the build
/// (canonical databases stay on linear scans).
class PreparedQuery {
 public:
  explicit PreparedQuery(const ConjunctiveQuery& q) : plan_(q) {}

  /// Relations smaller than this are scanned; larger ones get a hash index
  /// on the subgoal's bound columns (when it has any).
  static constexpr size_t kIndexGate = 32;

  struct Scratch {
    std::vector<Rational> values;        // var id -> value
    std::vector<char> bound;             // var id -> bound?
    std::vector<Rational> extra_values;  // bindings from ResolvePending
    std::vector<char> extra_bound;
    std::vector<uint32_t> extra_touched;
    std::vector<int> unresolved;
    std::vector<uint32_t> relations;  // Run(inst, ...)'s resolution
    Tuple head_row;
    struct DepthState {
      std::vector<const Rational*> rows;
      std::unordered_map<uint64_t, std::vector<uint32_t>> index;
      bool use_index = false;
    };
    std::vector<DepthState> depths;
    // Per-run parameters, set by Run.
    const Tuple* target = nullptr;
    Relation* out = nullptr;
    bool found = false;
  };

  /// Evaluates over `db`.  When `target` is non-null, stops as soon as the
  /// target head tuple is produced and returns whether it was found; when
  /// `out` is non-null, collects all head tuples.
  bool Run(const Database& db, const Tuple* target, Relation* out,
           Scratch* scratch) const;

  /// Same, over a flat instance; resolves the subgoals' relations first.
  bool Run(const FlatInstance& inst, const Tuple* target, Relation* out,
           Scratch* scratch) const;

  /// The relation of `inst` each subgoal reads, in plan order
  /// (SymbolInterner::kNotFound when `inst` lacks it), into `relations`.
  /// The answer holds while `inst` gains no relation, so a caller that
  /// refills one instance per order (a CanonicalFreezer's) resolves once.
  void ResolveRelations(const FlatInstance& inst,
                        std::vector<uint32_t>* relations) const;

  /// Run over `inst` with relations from ResolveRelations(inst): no name
  /// lookup per call.
  bool Run(const FlatInstance& inst, const std::vector<uint32_t>& relations,
           const Tuple* target, Relation* out, Scratch* scratch) const;

  int head_arity() const { return static_cast<int>(plan_.head.size()); }

 private:
  bool RunCommon(const Tuple* target, Relation* out, Scratch* scratch) const;
  void BuildIndex(size_t depth, Scratch* scratch) const;
  bool Search(size_t depth, Scratch* scratch) const;
  bool EmitHead(Scratch* scratch) const;
  bool ResolvePending(Scratch* scratch) const;
  bool CheckTriggers(size_t depth, const Scratch& scratch) const;
  uint64_t ProbeHash(const QueryPlan::Subgoal& plan,
                     const Scratch& scratch) const;

  QueryPlan plan_;
};

}  // namespace cqac

#endif  // CQAC_ENGINE_EVALUATE_H_

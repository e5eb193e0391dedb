#ifndef CQAC_AST_INTERNER_H_
#define CQAC_AST_INTERNER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace cqac {

/// Maps strings (variable and predicate names) to dense `uint32_t` ids.
///
/// The evaluation engine (FlatInstance, query plans) lowers the
/// string-based AST into flat integer form once; every later operation —
/// binding a variable, matching a predicate, indexing a relation — is then
/// an array access instead of a string-map lookup.  Ids are assigned
/// densely in first-intern order, so they double as indices into side
/// arrays (binding slots, relation tables).
///
/// Not thread-safe; each compilation owns its interner.
class SymbolInterner {
 public:
  SymbolInterner() = default;

  /// The id of `name`, interning it if new.  Ids are 0, 1, 2, ... in
  /// first-intern order.
  uint32_t Intern(const std::string& name) {
    auto [it, inserted] = ids_.emplace(name, static_cast<uint32_t>(names_.size()));
    if (inserted) names_.push_back(name);
    return it->second;
  }

  /// The id of `name` if already interned, else `kNotFound`.
  uint32_t Find(const std::string& name) const {
    auto it = ids_.find(name);
    return it == ids_.end() ? kNotFound : it->second;
  }

  /// The name of `id`; `id` must have been returned by Intern.
  const std::string& NameOf(uint32_t id) const { return names_[id]; }

  /// Number of distinct interned symbols (== the smallest unused id).
  uint32_t size() const { return static_cast<uint32_t>(names_.size()); }

  /// Drops every symbol; previously returned ids become invalid.
  void Clear() {
    ids_.clear();
    names_.clear();
  }

  static constexpr uint32_t kNotFound = UINT32_MAX;

 private:
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<std::string> names_;
};

/// Renders as `{0: X, 1: Y}` for diagnostics.
std::string InternerDebugString(const SymbolInterner& interner);

}  // namespace cqac

#endif  // CQAC_AST_INTERNER_H_

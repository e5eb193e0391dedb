#ifndef CQAC_CONTAINMENT_BINDING_TRAIL_H_
#define CQAC_CONTAINMENT_BINDING_TRAIL_H_

#include <cstdint>
#include <vector>

namespace cqac {

/// A trail-based binding store for backtracking search, in place of
/// copy-per-branch `Substitution` maps (the Simplifier's fold search keeps
/// its theta here).
///
/// Variables are dense ids 0..n-1; values are arbitrary non-negative
/// int32 codes (term ids, for the fold search).  `Bind` and `Get` are O(1) array accesses; a search
/// node records `Mark()` on entry and calls `UndoTo(mark)` on backtrack,
/// which unbinds exactly the variables bound since — in reverse binding
/// order — without touching earlier bindings and without allocating
/// (the vectors only ever grow).
class BindingTrail {
 public:
  static constexpr int32_t kUnbound = -1;

  /// Resets to `num_vars` unbound variables.  Keeps capacity.
  void Reset(size_t num_vars) {
    bindings_.assign(num_vars, kUnbound);
    trail_.clear();
  }

  /// The binding of `var`, or kUnbound.
  int32_t Get(uint32_t var) const { return bindings_[var]; }

  bool IsBound(uint32_t var) const { return bindings_[var] != kUnbound; }

  /// Binds `var` (which must be unbound) to `value >= 0` and records the
  /// binding on the trail.
  void Bind(uint32_t var, int32_t value) {
    bindings_[var] = value;
    trail_.push_back(var);
  }

  /// The current trail depth; pass to UndoTo to backtrack here.
  size_t Mark() const { return trail_.size(); }

  /// Unbinds every variable bound since `mark`, newest first.
  void UndoTo(size_t mark) {
    while (trail_.size() > mark) {
      bindings_[trail_.back()] = kUnbound;
      trail_.pop_back();
    }
  }

  /// The variables currently bound, oldest first.
  const std::vector<uint32_t>& trail() const { return trail_; }

  size_t num_vars() const { return bindings_.size(); }

 private:
  std::vector<int32_t> bindings_;
  std::vector<uint32_t> trail_;
};

}  // namespace cqac

#endif  // CQAC_CONTAINMENT_BINDING_TRAIL_H_

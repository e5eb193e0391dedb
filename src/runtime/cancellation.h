#ifndef CQAC_RUNTIME_CANCELLATION_H_
#define CQAC_RUNTIME_CANCELLATION_H_

#include <atomic>
#include <cstdint>
#include <limits>

namespace cqac {

/// Cooperative cancellation flag shared by a group of tasks.  Tasks poll
/// `cancelled()` at their entry (and at any convenient internal point);
/// anyone may call `Cancel()`.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Prefix cancellation for deterministic early abort over an indexed task
/// range (RunPreparedRewrite's enumeration subtrees and Phase-2 checks).
///
/// The algorithm stops at the FIRST failing canonical database, as the
/// inline schedule does; a pooled run may observe failures out of order.
/// So a failure in task i only cancels tasks past i: those below must still
/// run, as one may fail at a smaller index and be the failure the inline
/// run reports.  The cutoff converges to the minimal failing index, and
/// everything merged up to it is the inline run's prefix.
class PrefixCancel {
 public:
  static constexpr int64_t kNone = std::numeric_limits<int64_t>::max();

  /// Records a failure at `index`, lowering the cutoff monotonically.
  void FailAt(int64_t index) {
    int64_t current = cutoff_.load(std::memory_order_relaxed);
    while (index < current &&
           !cutoff_.compare_exchange_weak(current, index,
                                          std::memory_order_relaxed)) {
    }
  }

  /// True when the task at `index` still has to run: it is at or below
  /// every failure seen so far.
  bool ShouldRun(int64_t index) const {
    return index <= cutoff_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> cutoff_{kNone};
};

}  // namespace cqac

#endif  // CQAC_RUNTIME_CANCELLATION_H_

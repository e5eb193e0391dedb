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
/// range.
///
/// The algorithm stops at the FIRST failing canonical database, as the
/// inline schedule of RunPreparedRewrite (rewriting/equiv_rewriter.h)
/// does; a pooled run may observe failures out of order.  To reproduce the
/// inline answer byte-for-byte, a failure at index i only cancels work at
/// indices strictly greater than i: tasks below i must still run, because
/// one of them may fail at an even smaller index and become the failure
/// the inline run would have reported.  `cutoff()` therefore converges to
/// the minimal failing index — exactly the database the inline schedule
/// stops at — and everything merged afterwards is the prefix the inline
/// run would have produced.
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

  bool triggered() const {
    return cutoff_.load(std::memory_order_relaxed) != kNone;
  }

  /// The minimal failing index seen so far (kNone when none).  Only final
  /// once every task at or below the current value has completed.
  int64_t cutoff() const { return cutoff_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> cutoff_{kNone};
};

}  // namespace cqac

#endif  // CQAC_RUNTIME_CANCELLATION_H_

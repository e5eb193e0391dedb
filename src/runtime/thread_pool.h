#ifndef CQAC_RUNTIME_THREAD_POOL_H_
#define CQAC_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cqac {

/// A fixed-size thread pool over one FIFO task queue.
///
/// Every idle worker takes the oldest submitted task.  For the rewriting
/// runtime's ordered fan-outs (FanOut below) that means ascending unit
/// index, which is the order the prefix-cancellation token and the
/// in-order merge want: a failure at index i cancels the highest indices,
/// which have not started yet, not work the merge still needs.  One mutex
/// and one condition variable guard the queue; the per-task critical
/// section is a deque operation, negligible next to a work unit.
///
/// The destructor drains the queue — all submitted tasks run — and then
/// joins the workers, so a pool can be destroyed immediately after its
/// last Submit without losing work.
class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// `num_threads == 0` means std::thread::hardware_concurrency() (at
  /// least 1).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.  Thread-safe.
  void Submit(Task task);

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Highest number of submitted-but-not-started tasks observed at any
  /// Submit (monotonic; approximate while running).
  int64_t max_queue_depth() const { return max_depth_.load(); }

  /// Resolves a user-facing jobs count: 0 -> hardware concurrency,
  /// otherwise clamped to at least 1.
  static int ResolveJobs(int jobs);

  /// Largest worker-thread count any user-facing jobs flag accepts.  A
  /// pool of more threads than this is a configuration mistake, not a
  /// workload: each worker owns a stack.
  static constexpr int kMaxJobs = 4096;

  /// The one parser behind every jobs flag (`cqacsh --jobs`, the shell's
  /// `rewrite jobs=N`, `cqacd --jobs`): a base-10 non-negative integer
  /// with no trailing garbage, at most kMaxJobs (0 = hardware
  /// concurrency).  On failure returns false and, when `error` is
  /// non-null, sets it to a complete "--flag needs ..."-style reason
  /// without the flag name.
  static bool ParseJobsFlag(const std::string& text, int* jobs,
                            std::string* error = nullptr);

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> tasks_;  // guarded by mu_
  bool stopping_ = false;   // guarded by mu_

  std::atomic<int64_t> max_depth_{0};
};

/// Runs `run(i)` for every i in [0, n), as tasks of `pool` or, with a
/// null `pool`, inline in order; calls `merge(i)` on the calling thread in
/// index order once task i and every earlier one are done.  Every task has
/// finished when FanOut returns, so they may reference the caller's state.
void FanOut(ThreadPool* pool, int64_t n,
            const std::function<void(int64_t)>& run,
            const std::function<void(int64_t)>& merge);

}  // namespace cqac

#endif  // CQAC_RUNTIME_THREAD_POOL_H_

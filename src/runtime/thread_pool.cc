#include "runtime/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace cqac {

int ThreadPool::ResolveJobs(int jobs) {
  if (jobs != 0) return std::max(jobs, 1);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

bool ThreadPool::ParseJobsFlag(const std::string& text, int* jobs,
                               std::string* error) {
  // Strict: digits only, no sign, no surrounding whitespace (strtol
  // alone would accept " 3", which a flag or `jobs=` value never is).
  bool digits_only = !text.empty();
  for (const char c : text) {
    if (c < '0' || c > '9') {
      digits_only = false;
      break;
    }
  }
  char* end = nullptr;
  const long value =
      digits_only ? std::strtol(text.c_str(), &end, 10) : -1;
  if (!digits_only || end == text.c_str() || *end != '\0' || value < 0) {
    if (error != nullptr) {
      *error = "needs a non-negative integer, got '" + text + "'";
    }
    return false;
  }
  if (value > kMaxJobs) {
    if (error != nullptr) {
      *error = "accepts at most " + std::to_string(kMaxJobs) +
               " worker threads, got '" + text + "'";
    }
    return false;
  }
  *jobs = static_cast<int>(value);
  return true;
}

ThreadPool::ThreadPool(int num_threads) {
  const int n = ResolveJobs(num_threads);
  threads_.reserve(n);
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(Task task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
    const auto depth = static_cast<int64_t>(tasks_.size());
    if (depth > max_depth_.load(std::memory_order_relaxed)) {
      // mu_ serializes Submits, so a plain store cannot lose a larger
      // concurrent value.
      max_depth_.store(depth, std::memory_order_relaxed);
    }
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return !tasks_.empty() || stopping_; });
      // On shutdown keep draining until the queue is empty: tasks
      // submitted before (or during) destruction all run.
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void FanOut(ThreadPool* pool, int64_t n,
            const std::function<void(int64_t)>& run,
            const std::function<void(int64_t)>& merge) {
  if (pool == nullptr) {
    for (int64_t i = 0; i < n; ++i) {
      run(i);
      merge(i);
    }
    return;
  }
  std::mutex mu;
  std::condition_variable cv;
  std::vector<char> done(static_cast<size_t>(n), 0);  // guarded by `mu`
  for (int64_t i = 0; i < n; ++i) {
    pool->Submit([&, i] {
      run(i);
      // Notify while holding the lock: the merging thread owns cv's stack
      // frame and may destroy it the moment it observes the last `done`,
      // which the lock delays until the notify has returned.
      std::lock_guard<std::mutex> lock(mu);
      done[static_cast<size_t>(i)] = 1;
      cv.notify_all();
    });
  }
  for (int64_t i = 0; i < n; ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done[static_cast<size_t>(i)] != 0; });
    }
    merge(i);
  }
}

}  // namespace cqac

#include "runtime/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace cqac {
namespace {

TEST(ThreadPoolTest, ResolveJobs) {
  EXPECT_GE(ThreadPool::ResolveJobs(0), 1);
  EXPECT_EQ(ThreadPool::ResolveJobs(1), 1);
  EXPECT_EQ(ThreadPool::ResolveJobs(4), 4);
  EXPECT_EQ(ThreadPool::ResolveJobs(-3), 1);
}

TEST(ThreadPoolTest, ExecutesEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4);
    for (int i = 0; i < 500; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // Destructor drains all queues before joining.
  }
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInSubmissionOrder) {
  // One worker over the FIFO queue runs tasks exactly in submission order.
  std::vector<int> order;
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&order, i] { order.push_back(i); });
    }
  }
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, RecursiveSubmitFromWorkerCompletes) {
  std::atomic<int> counter{0};
  std::mutex mu;
  std::condition_variable cv;
  int remaining = 10 + 10 * 5;
  auto finish = [&] {
    std::lock_guard<std::mutex> lock(mu);
    if (--remaining == 0) cv.notify_one();
  };
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&, i] {
        for (int j = 0; j < 5; ++j) {
          pool.Submit([&] {
            counter.fetch_add(1);
            finish();
          });
        }
        counter.fetch_add(1);
        finish();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return remaining == 0; });
  }
  EXPECT_EQ(counter.load(), 60);
}

TEST(ThreadPoolTest, RecordsQueueDepth) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kTasks = 200;
  std::mutex mu;
  std::condition_variable cv;
  int remaining = kTasks;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      // A little work so the queue stays non-empty for a while.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      counter.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return remaining == 0; });
  }
  EXPECT_EQ(counter.load(), kTasks);
  EXPECT_GE(pool.max_queue_depth(), 1);
  EXPECT_LE(pool.max_queue_depth(), kTasks);
}

// The ordered fan-out: merge(i) runs on the calling thread, in index
// order, only after run(i) has finished, whatever order the workers
// finish in.
TEST(FanOutTest, MergesInIndexOrderAfterEachRun) {
  constexpr int64_t kTasks = 64;
  std::vector<std::atomic<bool>> ran(kTasks);
  std::vector<int64_t> merged;
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool pool(4);
  FanOut(
      &pool, kTasks,
      [&](int64_t i) {
        // Later indices finish first more often than not.
        std::this_thread::sleep_for(std::chrono::microseconds(kTasks - i));
        ran[i].store(true);
      },
      [&](int64_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_TRUE(ran[i].load()) << i;
        merged.push_back(i);
      });
  ASSERT_EQ(merged.size(), static_cast<size_t>(kTasks));
  for (int64_t i = 0; i < kTasks; ++i) EXPECT_EQ(merged[i], i);
}

TEST(FanOutTest, NullPoolRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::string> calls;
  FanOut(
      nullptr, 3,
      [&](int64_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        calls.push_back("run" + std::to_string(i));
      },
      [&](int64_t i) { calls.push_back("merge" + std::to_string(i)); });
  const std::vector<std::string> expected = {"run0",   "merge0", "run1",
                                             "merge1", "run2",   "merge2"};
  EXPECT_EQ(calls, expected);
}

TEST(FanOutTest, EveryTaskFinishedOnReturn) {
  // The merge is a no-op, so only FanOut's own wait keeps the counter
  // from being read early.
  ThreadPool pool(4);
  for (const int64_t n : {int64_t{0}, int64_t{1}, int64_t{100}}) {
    std::atomic<int64_t> finished{0};
    FanOut(
        &pool, n,
        [&](int64_t) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          finished.fetch_add(1);
        },
        [](int64_t) {});
    EXPECT_EQ(finished.load(), n);
  }
}

TEST(ParseJobsFlagTest, AcceptsPlainCounts) {
  int jobs = -1;
  EXPECT_TRUE(ThreadPool::ParseJobsFlag("0", &jobs));
  EXPECT_EQ(jobs, 0);
  EXPECT_TRUE(ThreadPool::ParseJobsFlag("16", &jobs));
  EXPECT_EQ(jobs, 16);
  EXPECT_TRUE(ThreadPool::ParseJobsFlag("4096", &jobs));
  EXPECT_EQ(jobs, ThreadPool::kMaxJobs);
}

TEST(ParseJobsFlagTest, RejectsGarbageWithAReason) {
  int jobs = 7;
  std::string error;
  for (const char* bad : {"", "4x", "abc", "-1", " 3", "3 "}) {
    EXPECT_FALSE(ThreadPool::ParseJobsFlag(bad, &jobs, &error)) << bad;
    EXPECT_NE(error.find("non-negative integer"), std::string::npos) << bad;
    EXPECT_EQ(jobs, 7) << "rejected input must not modify the output";
  }
}

TEST(ParseJobsFlagTest, ClampsAtKMaxJobsWithAClearError) {
  // The old parser accepted anything up to 1<<20 "worker threads" — a
  // configuration mistake, not a workload.  Past kMaxJobs is now an error
  // that names the limit.
  int jobs = 7;
  std::string error;
  EXPECT_FALSE(ThreadPool::ParseJobsFlag("4097", &jobs, &error));
  EXPECT_NE(error.find("at most 4096"), std::string::npos);
  EXPECT_FALSE(ThreadPool::ParseJobsFlag("1048576", &jobs, &error));
  EXPECT_NE(error.find("at most 4096"), std::string::npos);
  EXPECT_EQ(jobs, 7);
}

}  // namespace
}  // namespace cqac

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include "util/aligned_buffer.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace dsinfer {
namespace {

TEST(AlignedBuffer, AlignmentIs64Bytes) {
  AlignedBuffer<float> buf(17);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kCacheLineBytes, 0u);
  EXPECT_EQ(buf.size(), 17u);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(8);
  a[0] = 42;
  int* p = a.data();
  AlignedBuffer<int> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[0], 42);
  EXPECT_TRUE(a.empty());
}

TEST(AlignedBuffer, ResetReallocates) {
  AlignedBuffer<double> a(4);
  a.reset(100);
  EXPECT_EQ(a.size(), 100u);
  a.reset(0);
  EXPECT_TRUE(a.empty());
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSmallRange) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  pool.parallel_for(0, 3, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ThreadPool, ParallelForJoinSurvivesOversubscribedChurn) {
  // Regression: the join's completion count must be mutated under the same
  // mutex the waiter sleeps on — a decrement outside it let a spurious
  // wakeup unwind parallel_for's stack locals while the last worker was
  // still about to lock them (observed as a permanent futex hang under
  // TSan with concurrent test processes). Churn many tiny joined loops
  // from several threads over one shared pool to keep that window hot.
  ThreadPool pool(4);
  std::atomic<long> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int iter = 0; iter < 500; ++iter) {
        pool.parallel_for(0, 16, [&](std::size_t b, std::size_t e) {
          total.fetch_add(static_cast<long>(e - b),
                          std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(total.load(), 4L * 500L * 16L);
}

TEST(ThreadPool, SubmitRunsTask) {
  ThreadPool pool(1);
  std::atomic<bool> ran{false};
  pool.submit([&] { ran = true; });
  // parallel_for flushes the queue because it shares workers.
  pool.parallel_for(0, 1, [](std::size_t, std::size_t) {});
  for (int i = 0; i < 1000 && !ran; ++i) std::this_thread::yield();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, OneWorkerPoolRunsEveryChunkOnTheCaller) {
  // The fan-out is bounded by the pool size, the caller included: a
  // 1-worker pool (one CPU) runs the whole range inline instead of
  // time-slicing its core between the caller and the worker.
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::mutex mu;
  std::vector<std::thread::id> ran_on;
  std::size_t covered = 0;
  pool.parallel_for(0, 8, 1, [&](std::size_t b, std::size_t e) {
    std::lock_guard<std::mutex> lock(mu);
    ran_on.push_back(std::this_thread::get_id());
    covered += e - b;
  });
  EXPECT_EQ(covered, 8u);
  ASSERT_FALSE(ran_on.empty());
  for (const auto& id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, DefaultSizeFollowsTheAffinityMask) {
  // A default pool built on a thread pinned to one CPU gets one worker, not
  // one per CPU in the machine.
#if defined(__linux__)
  std::size_t size = 0;
  bool pinned = false;
  std::thread t([&] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    int cpu = 0;
    while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &set)) ++cpu;
    if (cpu == CPU_SETSIZE) return;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0) return;
    pinned = true;
    ThreadPool pool;
    size = pool.size();
  });
  t.join();
  if (!pinned) GTEST_SKIP() << "sched_setaffinity failed";
  EXPECT_EQ(size, 1u);
#else
  GTEST_SKIP() << "affinity masks are read on Linux only";
#endif
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, FillNormalHasRoughlyCorrectMoments) {
  Rng rng(3);
  std::vector<float> v(20000);
  rng.fill_normal(v, 2.0f, 0.5f);
  double mean = std::accumulate(v.begin(), v.end(), 0.0) / v.size();
  EXPECT_NEAR(mean, 2.0, 0.05);
}

TEST(Rng, IntegerInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.integer(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Stats, SummaryOfKnownSamples) {
  std::vector<double> v{1, 2, 3, 4, 5};
  Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_EQ(s.count, 5u);
}

TEST(Stats, SummaryTailPercentilesOrdered) {
  std::vector<double> v(101);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<double>(v.size() - 1 - i);  // 100..0, unsorted input
  }
  Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p90, 90.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
}

TEST(Stats, SummaryEmptyIsZero) {
  Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.p90, 0.0);
  EXPECT_EQ(s.p95, 0.0);
  EXPECT_EQ(s.p99, 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, -1.0), 0.0);   // clamped
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 2.0), 10.0);   // clamped
  EXPECT_DOUBLE_EQ(percentile_sorted({}, 0.5), 0.0);   // empty -> 0
}

TEST(Stats, StopwatchAdvances) {
  Stopwatch sw;
  double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  (void)x;
  EXPECT_GT(sw.elapsed_s(), 0.0);
}

TEST(Table, PrintAlignsColumns) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("a"), std::string::npos);
  EXPECT_NE(os.str().find("--"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvQuotesCommas) {
  Table t({"x"});
  t.add_row({"a,b"});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_NE(os.str().find("\"a,b\""), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
}

}  // namespace
}  // namespace dsinfer

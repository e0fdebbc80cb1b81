#include "util/thread_pool.h"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>

namespace dsinfer {

namespace {

// CPUs the calling thread may run on: a process pinned with taskset or
// sched_setaffinity gets one worker per allowed CPU rather than one per CPU
// in the machine. Falls back to hardware_concurrency() when the mask cannot
// be read.
std::size_t allowed_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = allowed_cpus();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  parallel_for(begin, end, 1, body);
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (grain == 0) grain = 1;
  // Serial fallback: a range that fits in one grain is cheaper to run inline
  // than to pay a worker wakeup + condvar join per layer.
  if (n <= grain) {
    body(begin, end);
    return;
  }
  // At most size() chunks, the caller's included: the pool was sized to the
  // CPUs it may use, so one more thread would only time-slice a core (a
  // 1-worker pool on one CPU runs the range inline).
  const std::size_t chunks =
      std::min(std::max<std::size_t>(workers_.size(), 1),
               (n + grain - 1) / grain);
  if (chunks <= 1) {
    body(begin, end);
    return;
  }
  // The count, and the notify, both happen under done_mu: the waiter can
  // only observe remaining == 0 after the last worker has released the
  // lock, so these stack locals are never destroyed while a worker still
  // holds (or is about to take) them. Decrementing outside the lock and
  // locking only to notify leaves a window where a spurious wakeup lets
  // parallel_for return and unwind while the last worker is between its
  // decrement and the lock — a use-after-scope that hangs on the dead
  // mutex's futex.
  std::size_t remaining = chunks - 1;
  std::mutex done_mu;
  std::condition_variable done_cv;
  auto finish_one = [&] {
    std::lock_guard<std::mutex> lock(done_mu);
    if (--remaining == 0) done_cv.notify_one();
  };
  const std::size_t step = (n + chunks - 1) / chunks;
  // Chunks 1..chunks-1 run on the pool; chunk 0 runs inline below.
  for (std::size_t c = 1; c < chunks; ++c) {
    const std::size_t lo = begin + c * step;
    const std::size_t hi = std::min(end, lo + step);
    if (lo >= hi) {
      finish_one();
      continue;
    }
    submit([&, lo, hi] {
      body(lo, hi);
      finish_one();
    });
  }
  body(begin, std::min(end, begin + step));
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace dsinfer

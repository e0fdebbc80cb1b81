// A minimal work-stealing-free thread pool with a blocking parallel_for.
//
// The functional engine uses one long-lived pool for intra-op parallelism
// (analogous to CUDA thread blocks within a kernel) while `VirtualDevice`
// threads in src/parallel provide inter-device parallelism (analogous to
// multiple GPUs). Keeping these separate mirrors the paper's layering.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dsinfer {

class ThreadPool {
 public:
  // `threads == 0` selects one worker per CPU in the calling thread's
  // affinity mask (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueue a task; fire and forget. Use parallel_for for joined work.
  void submit(std::function<void()> task);

  // Splits [begin, end) into at most size() roughly equal contiguous
  // chunks, runs `body(chunk_begin, chunk_end)` on the calling thread (one
  // chunk) and the workers (the rest), and returns when all chunks
  // finished. Safe to call with begin==end.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body);

  // Grain-aware variant: never creates a chunk smaller than `grain` items,
  // and runs the whole range inline on the calling thread when it fits in
  // one grain. Kernels size the grain so tiny ranges (decode with m=1, few
  // panels) skip the pool's wakeup/join latency entirely.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  // Process-wide pool sized to the CPUs the first caller may run on; used by
  // kernels by default.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace dsinfer

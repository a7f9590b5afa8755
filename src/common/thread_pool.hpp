// Fixed-size worker pool with a blocking task queue, plus parallel_for.
//
// All data-parallel stages (feature extraction over segments, per-cluster
// training, per-node detection, serve-engine batch scoring) funnel through
// this pool so thread count is controlled in one place. With
// hardware_concurrency()==1 the pool degrades to sequential execution with
// identical results.
//
// Exception policy: a task exception never terminates the process. submit()
// returns a future that rethrows the task's exception; parallel_for()
// rethrows the first exception of its iterations.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace ns {

class ThreadPool {
 public:
  /// Creates a pool with `threads` workers; 0 means hardware_concurrency()
  /// (which itself may report 0 on exotic platforms — that degrades to a
  /// single worker, never to a thread-less deadlocked pool).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the returned future rethrows any task exception.
  /// Throws ns::InvalidArgument after shutdown().
  std::future<void> submit(std::function<void()> task);

  /// Stops accepting work, lets the workers finish every queued task, and
  /// joins them. Idempotent; also invoked by the destructor.
  void shutdown();

  /// True once shutdown() has begun; submit() will throw.
  bool stopped() const;

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& global();

  /// Runs fn(i) for i in [begin, end), splitting the range into fixed
  /// `grain`-sized chunks claimed from a shared atomic cursor by the
  /// calling thread and by up to size() queued helper tasks. The caller
  /// waits only for chunks a helper has already claimed, never for a helper
  /// to start: when every worker is busy it runs all chunks itself and
  /// returns, and a helper that starts after the last claim returns without
  /// calling fn. Called from one of this pool's own workers it runs
  /// sequentially (never deadlocks). Chunk boundaries depend only on
  /// (begin, end, grain) — not on the worker count — and each index is
  /// processed by exactly one thread, so any per-index computation that is
  /// itself deterministic yields identical results at any thread count.
  /// Blocks until every iteration finished; every chunk runs even when one
  /// throws, and the first exception caught is rethrown.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  /// True when the calling thread is one of this pool's workers: a nested
  /// parallel_for then runs sequentially instead of deadlocking.
  bool on_worker_thread() const;

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Convenience wrapper over ThreadPool::parallel_for on the given pool
/// (global pool when nullptr). Kept for callers that do not hold a pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  ThreadPool* pool = nullptr, std::size_t grain = 1);

}  // namespace ns

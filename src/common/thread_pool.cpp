#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace ns {

namespace {
// Which pool (if any) owns the current thread. Lets nested parallel_for
// calls from inside a task detect their own pool and run sequentially.
thread_local ThreadPool* t_worker_pool = nullptr;

// One parallel_for call, shared by its caller and every helper task it
// queued. A helper may start long after the call returned (queued behind
// busy workers): it then finds the cursor exhausted and returns without
// touching `fn`, which only a claimed chunk dereferences.
//
// Chunk layout is a pure function of (begin, end, grain): chunk c covers
// [begin + c*grain, begin + (c+1)*grain). Threads claim whole chunks from
// an atomic cursor, so each index runs on exactly one thread no matter how
// many workers exist or in what order chunks are stolen.
struct ParallelLoop {
  ParallelLoop(std::size_t begin, std::size_t end, std::size_t grain,
               const std::function<void(std::size_t)>& fn)
      : begin(begin),
        end(end),
        grain(grain),
        chunks((end - begin + grain - 1) / grain),
        fn(&fn) {}

  // Claims and runs chunks until none is left. A chunk that throws still
  // counts as finished; the first exception is kept for the caller.
  void run_chunks() {
    for (std::size_t c = cursor.fetch_add(1); c < chunks;
         c = cursor.fetch_add(1)) {
      const std::size_t lo = begin + c * grain;
      const std::size_t hi = std::min(end, lo + grain);
      std::exception_ptr error;
      try {
        for (std::size_t i = lo; i < hi; ++i) (*fn)(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mutex);
      if (error && !first_error) first_error = std::move(error);
      if (++finished == chunks) all_finished.notify_one();
    }
  }

  // Blocks until every chunk has finished, then rethrows the first
  // exception a chunk threw.
  void wait() {
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(mutex);
      all_finished.wait(lock, [this] { return finished == chunks; });
      error = first_error;
    }
    if (error) std::rethrow_exception(error);
  }

  const std::size_t begin, end, grain, chunks;
  const std::function<void(std::size_t)>* const fn;
  std::atomic<std::size_t> cursor{0};
  std::mutex mutex;  // guards finished and first_error
  std::condition_variable all_finished;
  std::size_t finished = 0;
  std::exception_ptr first_error;
};
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    threads = hc == 0 ? 1 : hc;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    NS_CHECK(!stopping_, "submit on stopped ThreadPool");
    queue_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && workers_.empty()) return;  // already shut down
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

bool ThreadPool::stopped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stopping_;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::on_worker_thread() const { return t_worker_pool == this; }

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t grain,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t n = end - begin;
  if (size() <= 1 || n <= grain || stopped() || on_worker_thread()) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // The caller claims chunks too, so the loop completes even when no
  // helper ever starts; it waits only for chunks a helper already claimed.
  const auto loop = std::make_shared<ParallelLoop>(begin, end, grain, fn);
  const std::size_t helpers = std::min(loop->chunks - 1, size());
  for (std::size_t h = 0; h < helpers; ++h) {
    try {
      submit([loop] { loop->run_chunks(); });
    } catch (...) {
      // The pool began shutdown mid-call, or a task could not be queued.
      // Leaving by exception would let queued helpers reach `fn` after it
      // died, so the caller runs what remains instead.
      break;
    }
  }
  loop->run_chunks();
  loop->wait();
}

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions captured in the packaged_task's future
  }
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn, ThreadPool* pool,
                  std::size_t grain) {
  if (pool == nullptr) pool = &ThreadPool::global();
  pool->parallel_for(begin, end, grain, fn);
}

}  // namespace ns

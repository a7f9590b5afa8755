#include "store/writer.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"

namespace ns {

StoreWriter::StoreWriter(TimeSeriesStore store, StoreWriterConfig config,
                         obs::Registry* registry)
    : store_(std::move(store)), config_(config) {
  obs::Registry& reg = registry ? *registry : obs::Registry::global();
  samples_written_counter_ = &reg.counter(
      "ns_store_samples_written_total", "Samples appended to the store");
  batches_dropped_counter_ =
      &reg.counter("ns_store_batches_dropped_total",
                   "Batches dropped (oldest-first) by queue backpressure");
  batches_failed_counter_ =
      &reg.counter("ns_store_batches_failed_total",
                   "Batches whose append threw (rethrown by drain)");
  pages_sealed_counter_ =
      &reg.counter("ns_store_pages_sealed_total", "Pages sealed to disk");
  queue_depth_gauge_ =
      &reg.gauge("ns_store_queue_depth", "Batches pending write right now");
  sealed_bytes_gauge_ = &reg.gauge("ns_store_sealed_bytes",
                                   "Bytes sealed on disk across all nodes");
  batch_write_hist_ = &reg.histogram(
      "ns_store_batch_write_seconds", "Store batch append latency in seconds",
      obs::default_latency_buckets());
  consumer_ = std::thread([this] { run(); });
}

StoreWriter::~StoreWriter() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (consumer_.joinable()) consumer_.join();
  try {
    store_.flush();
  } catch (const std::exception& e) {
    NS_LOG_WARN("store writer: final flush failed: " << e.what());
  }
}

void StoreWriter::enqueue(Batch batch) {
  std::size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(batch));
    ++enqueued_;
    while (config_.queue_capacity > 0 &&
           queue_.size() > config_.queue_capacity) {
      queue_.pop_front();
      ++dropped;
    }
    dropped_ += dropped;
    queue_depth_gauge_->set(static_cast<double>(queue_.size()));
  }
  if (dropped > 0) batches_dropped_counter_->inc(dropped);
  work_cv_.notify_one();
}

void StoreWriter::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      // stop_ and nothing left: the destructor flushes after the join.
      idle_cv_.notify_all();
      return;
    }
    std::deque<Batch> batches;
    batches.swap(queue_);
    queue_depth_gauge_->set(0.0);
    busy_ = true;
    lock.unlock();
    // The store is touched unlocked: drain() cannot reach it while busy_,
    // and producers only touch the queue. Nothing may escape this thread:
    // batch errors are caught per batch, and the sweep's own bookkeeping
    // (allocation) is caught here.
    std::vector<std::size_t> appended;
    std::vector<std::exception_ptr> errors;
    std::exception_ptr sweep_error;
    try {
      appended.assign(batches.size(), 0);
      errors.assign(batches.size(), nullptr);
      write_batches(batches, appended, errors);
    } catch (...) {
      sweep_error = std::current_exception();
    }
    lock.lock();
    for (std::size_t b = 0; b < errors.size(); ++b) {
      written_ += appended[b];
      if (errors[b]) {
        ++failed_;
        if (!error_) error_ = errors[b];
      }
    }
    if (sweep_error && !error_) error_ = sweep_error;
    busy_ = false;
    idle_cv_.notify_all();
  }
}

void StoreWriter::write_batches(const std::deque<Batch>& batches,
                                std::vector<std::size_t>& appended,
                                std::vector<std::exception_ptr>& errors) {
  // Group by node, enqueue order kept within a node: the store takes
  // appends to distinct nodes concurrently, and each node sees its samples
  // in the order a serial writer would append them.
  std::vector<std::size_t> order(batches.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return batches[a].node < batches[b].node;
                   });
  std::vector<std::size_t> group_begin;
  for (std::size_t i = 0; i < order.size(); ++i)
    if (i == 0 || batches[order[i]].node != batches[order[i - 1]].node)
      group_begin.push_back(i);
  group_begin.push_back(order.size());
  ThreadPool::global().parallel_for(
      0, group_begin.size() - 1, 1, [&](std::size_t g) {
        for (std::size_t i = group_begin[g]; i < group_begin[g + 1]; ++i) {
          // A batch that throws (ticks out of order, a failed segment
          // write) must neither escape the pool task nor stop the batches
          // after it: it is counted and its error waits for drain().
          const std::size_t b = order[i];
          const Batch& batch = batches[b];
          Stopwatch sw;
          try {
            for (; appended[b] < batch.samples.size(); ++appended[b])
              store_.append(batch.node, batch.samples[appended[b]]);
          } catch (...) {
            errors[b] = std::current_exception();
          }
          batch_write_hist_->observe(sw.elapsed_s());
          samples_written_counter_->inc(appended[b]);
          if (errors[b]) batches_failed_counter_->inc();
        }
      });
}

void StoreWriter::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
  // Consumer is idle and the queue is empty; holding the mutex keeps it
  // parked (it needs the lock to pick up new work), so the flush below is
  // the only store access. A batch error came first, so it wins over a
  // flush error; either is rethrown only after the flush made every seal
  // that could land durable.
  std::exception_ptr error = std::exchange(error_, nullptr);
  try {
    store_.flush();
  } catch (...) {
    if (!error) error = std::current_exception();
  }
  const std::uint64_t pages = store_.stats().pages_sealed;
  pages_sealed_counter_->inc(pages - pages_published_);
  pages_published_ = pages;
  sealed_bytes_gauge_->set(static_cast<double>(store_.sealed_bytes()));
  if (error) std::rethrow_exception(error);
}

std::uint64_t StoreWriter::batches_failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

std::uint64_t StoreWriter::batches_enqueued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return enqueued_;
}

std::uint64_t StoreWriter::batches_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::uint64_t StoreWriter::samples_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return written_;
}

}  // namespace ns

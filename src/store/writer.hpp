// Async front of the time-series store: the ServeEngine (or any producer)
// enqueues per-node sample batches; one consumer thread takes every queued
// batch at once, groups them by node and seals the groups in parallel on
// ThreadPool::global() — one node's batches in enqueue order, so the bytes
// on disk match a serial append. The queue is bounded and drops its
// *oldest* batch past the cap — same backpressure discipline as the
// engine's scoring queue: stale history is worth less than stalling the
// collector loop. A batch whose append throws is counted, the other
// batches still seal, and the next drain() rethrows the first such error.
// Drops, failures, depth and write latency are exposed as ns_store_*
// instruments.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "store/store.hpp"

namespace ns {

struct StoreWriterConfig {
  /// Bound on queued batches; past it the oldest batch is dropped. 0 =
  /// unbounded. ServeEngine::finalize() enqueues one batch per node in one
  /// burst, so a bound below the served node count drops whole node
  /// histories; ServeSession raises a nonzero bound to the node count.
  std::size_t queue_capacity = 256;
};

class StoreWriter {
 public:
  /// One producer hand-off: every sample of one node, ticks strictly
  /// increasing and ahead of everything already written for that node.
  struct Batch {
    std::size_t node = 0;
    std::vector<StoreSample> samples;
  };

  /// Takes ownership of `store`; `registry` null means the process-global
  /// obs registry. The consumer thread starts immediately.
  explicit StoreWriter(TimeSeriesStore store, StoreWriterConfig config = {},
                       obs::Registry* registry = nullptr);
  /// Drains the queue, flushes the store, and joins the consumer. Errors
  /// are swallowed (destructors must not throw) — call drain() first when
  /// durability matters.
  ~StoreWriter();

  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  /// Never blocks on I/O: past queue_capacity the oldest queued batch is
  /// dropped (counted in ns_store_batches_dropped_total).
  void enqueue(Batch batch);

  /// Blocks until every queued batch is written, then flushes the store
  /// (seals pages, commits the index). After drain() the store is
  /// consistent on disk and safe to query through store(). Then rethrows,
  /// once, the first error a batch raised since the previous drain(), else
  /// the flush's own error. The samples a failed batch appended before
  /// failing stay written; a node whose segment write failed keeps its
  /// open page and retries it in a fresh segment file at its next seal
  /// (store.hpp), at the latest in this or the next drain().
  void drain();

  /// The underlying store. Only consistent between drain() (or
  /// construction) and the next enqueue() — the consumer owns the store
  /// while batches are in flight.
  const TimeSeriesStore& store() const { return store_; }

  std::uint64_t batches_enqueued() const;
  std::uint64_t batches_dropped() const;
  /// Batches whose append threw (ns_store_batches_failed_total).
  std::uint64_t batches_failed() const;
  /// Samples the store accepted: sealed, or in a node's open page until
  /// the next flush.
  std::uint64_t samples_written() const;

 private:
  void run();
  /// Appends every batch, distinct nodes in parallel; fills, per batch,
  /// the samples appended and the error that stopped it (if any).
  void write_batches(const std::deque<Batch>& batches,
                     std::vector<std::size_t>& appended,
                     std::vector<std::exception_ptr>& errors);

  TimeSeriesStore store_;
  StoreWriterConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< producer -> consumer
  std::condition_variable idle_cv_;   ///< consumer -> drain()
  std::deque<Batch> queue_;
  bool busy_ = false;  ///< consumer is mid-batch (store in use, unlocked)
  bool stop_ = false;
  std::uint64_t enqueued_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t written_ = 0;
  std::uint64_t pages_published_ = 0;  ///< pages already counted into obs
  std::exception_ptr error_;  ///< first batch failure since the last drain()

  obs::Counter* samples_written_counter_ = nullptr;
  obs::Counter* batches_dropped_counter_ = nullptr;
  obs::Counter* batches_failed_counter_ = nullptr;
  obs::Counter* pages_sealed_counter_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* sealed_bytes_gauge_ = nullptr;
  obs::Histogram* batch_write_hist_ = nullptr;

  std::thread consumer_;
};

}  // namespace ns

// Lock-free single-producer / single-consumer ring (the fleet's per-shard
// ingest lane, DESIGN.md §14).
//
// One producer (the collector thread routing samples) and one consumer
// (the shard worker) each own one end: the producer writes slots and
// publishes `tail_` with a release store, the consumer reads slots behind
// an acquire load of `tail_` and retires them through `head_`. No CAS, no
// mutex, no allocation after construction — a push/pop pair is two relaxed
// loads, one acquire load, a slot move, and one release store. The indices
// live on separate cache lines so the two threads never false-share.
//
// Capacity is rounded up to a power of two; try_push/try_pop never block
// (the fleet's producer decides the full-ring policy — it spins with
// yield, counting the stall, because dropping raw samples would silently
// rewrite history downstream).
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace ns {

template <typename T>
class SpscRing {
 public:
  /// Rounds `capacity` up to a power of two, at least one slot. A fleet
  /// asks for at least two (FleetConfig::validate() checks it).
  explicit SpscRing(std::size_t capacity) {
    std::size_t pow2 = 1;
    while (pow2 < capacity) pow2 <<= 1;
    slots_.resize(pow2);
    mask_ = pow2 - 1;
  }

  std::size_t capacity() const { return slots_.size(); }

  /// Producer only. Moves `value` into the ring and returns true; returns
  /// false (leaving `value` untouched) when the ring is full.
  bool try_push(T&& value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) == slots_.size())
      return false;  // full
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer only. Moves the oldest element into `out` and returns true;
  /// false when the ring is empty.
  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (tail_.load(std::memory_order_acquire) == head) return false;  // empty
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Approximate occupancy (exact only on the producer or consumer thread).
  std::size_t size() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail - head;
  }

  bool empty() const { return size() == 0; }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  ///< consumer cursor
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< producer cursor
};

}  // namespace ns

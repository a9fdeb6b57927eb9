// Bounded lock-free single-producer/single-consumer ring.
//
// The cross-shard mailbox fabric (sim/shard_set.h) gives every ordered pair
// of shards one of these: the runner executing the sending shard is the
// unique producer (the shard-to-runner assignment never changes), the
// coordinator (draining at the time barrier, while helpers are parked) is
// the unique consumer.  That pairing is what makes SPSC sufficient — no
// two threads ever push to, or pop from, the same ring concurrently.
//
// Classic Lamport queue with C++11 atomics: `head_` is written only by the
// consumer, `tail_` only by the producer; each side reads the other's index
// with acquire and publishes its own with release, so the element payload
// written before the release-store of `tail_` is visible after the
// acquire-load on the consumer side (and symmetrically for slot reuse).
// Capacity is rounded up to a power of two so index masking is a single
// AND.  Both indices live on their own cache line to prevent false sharing
// between the producer and consumer cores.
//
// push() is non-blocking and returns false when full — the mailbox layer
// diverts to a sender-local overflow vector instead of spinning, because
// the consumer only drains at barriers (spinning would deadlock the
// window).  Elements are moved in and out; T needs to be movable, nothing
// more.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "util/errors.h"

namespace aars::sim {

/// Destructive-interference granularity.  A fixed 64 (right for every
/// mainstream x86/ARM target) rather than
/// std::hardware_destructive_interference_size, whose value shifts with
/// tuning flags and triggers -Winterference-size in headers.
inline constexpr std::size_t kCacheLineSize = 64;

template <typename T>
class SpscRing {
 public:
  /// `capacity` is a minimum; the ring rounds it up to a power of two.
  explicit SpscRing(std::size_t capacity)
      : mask_(round_up_pow2(capacity) - 1),
        buffer_(round_up_pow2(capacity)) {
    util::require(capacity > 0, "ring capacity must be positive");
  }
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Returns false (value untouched) when the ring is full.
  bool push(T& value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    if (tail - head > mask_) return false;  // full
    buffer_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }
  bool push(T&& value) { return push(value); }

  /// Consumer side. Empty optional when the ring is empty.
  std::optional<T> pop() {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return std::nullopt;
    std::optional<T> out(std::move(buffer_[head & mask_]));
    head_.store(head + 1, std::memory_order_release);
    return out;
  }

  /// Consumer-side size estimate (exact when the producer is quiescent).
  std::size_t size() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_relaxed);
  }
  bool empty() const { return size() == 0; }
  std::size_t capacity() const { return mask_ + 1; }

 private:
  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  const std::size_t mask_;
  std::vector<T> buffer_;
  alignas(kCacheLineSize) std::atomic<std::size_t> head_{0};  // consumer-owned
  alignas(kCacheLineSize) std::atomic<std::size_t> tail_{0};  // producer-owned
};

}  // namespace aars::sim

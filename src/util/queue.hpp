// Bounded MPMC queue shared by the proxy pipeline and the query engine
// (controller -> querier message flow, §2.6).
//
// Shutdown contract: close() atomically flips the queue to closed and wakes
// every blocked producer and consumer exactly once (a single notify_all per
// condition under the lock — no lost wakeups, no spurious re-blocking).
// After close(), pushes are rejected *with the item intact* so callers can
// re-route work instead of silently losing it (the failure mode PR 1's
// lifecycle work exists to prevent), and pops drain the remaining items
// before returning nullopt.
//
// Overload handling (replay supervision layer): producers may wait with a
// bounded grace (`push_for`) and then shed by evicting the oldest queued
// item (`evict_push`) so a stalled consumer back-pressures into accounted
// load shedding instead of freezing the controller clock. `high_water()`
// reports the deepest the queue ever got, for saturation diagnostics.
#pragma once

#include <condition_variable>
#include <chrono>
#include <deque>
#include <mutex>
#include <optional>

#include "util/clock.hpp"

namespace ldp {

/// Outcome of a non-blocking or bounded-wait push.
enum class PushResult : uint8_t {
  Ok = 0,      ///< item enqueued
  Full = 1,    ///< grace expired with the queue still full; item preserved
  Closed = 2,  ///< queue closed; item preserved
};

/// Bounded MPMC queue. push() blocks when full (back-pressure on the
/// reader); pop() blocks until an item or shutdown.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  /// Blocking push. Returns false if the queue was closed (before or while
  /// waiting); the item is lost in that case — prefer push_for() when the
  /// caller can re-route rejected work.
  bool push(T item) { return push_for(item, -1) == PushResult::Ok; }

  /// Push, waiting at most `grace` for space (grace < 0 waits forever,
  /// grace == 0 never blocks). On Full/Closed the item is left intact in
  /// `item` so the caller can shed, re-route, or retry it.
  PushResult push_for(T& item, TimeNs grace) {
    std::unique_lock lock(mu_);
    auto ready = [this] { return items_.size() < capacity_ || closed_; };
    if (grace < 0) {
      not_full_.wait(lock, ready);
    } else if (!not_full_.wait_for(lock, std::chrono::nanoseconds(grace), ready)) {
      return PushResult::Full;
    }
    if (closed_) return PushResult::Closed;
    items_.push_back(std::move(item));
    if (items_.size() > high_water_) high_water_ = items_.size();
    not_empty_.notify_one();
    return PushResult::Ok;
  }

  /// Non-blocking push that makes room by evicting the oldest queued item
  /// when full (drop-oldest shedding). The evicted item, if any, is returned
  /// through `evicted` for accounting. Closed queues still reject.
  PushResult evict_push(T& item, std::optional<T>& evicted) {
    std::unique_lock lock(mu_);
    if (closed_) return PushResult::Closed;
    if (items_.size() >= capacity_ && !items_.empty()) {
      evicted = std::move(items_.front());
      items_.pop_front();
    }
    items_.push_back(std::move(item));
    if (items_.size() > high_water_) high_water_ = items_.size();
    not_empty_.notify_one();
    return PushResult::Ok;
  }

  /// Returns nullopt once closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
    return take_locked();
  }

  /// Bounded-wait pop: nullopt on timeout *or* closed-and-drained; callers
  /// that need to tell the two apart check closed_and_empty() after. Lets a
  /// consumer thread interleave housekeeping (heartbeats) with draining.
  std::optional<T> pop_for(TimeNs timeout) {
    std::unique_lock lock(mu_);
    not_empty_.wait_for(lock, std::chrono::nanoseconds(timeout),
                        [this] { return !items_.empty() || closed_; });
    return take_locked();
  }

  /// Close: pushes fail (items preserved via push_for/evict_push), pops
  /// drain then return nullopt. Idempotent; wakes all waiters exactly once.
  void close() {
    std::lock_guard lock(mu_);
    if (closed_) return;
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// True once close() was called and every item has been popped.
  bool closed_and_empty() const {
    std::lock_guard lock(mu_);
    return closed_ && items_.empty();
  }

  bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

  /// Deepest the queue ever got (saturation high-water mark).
  size_t high_water() const {
    std::lock_guard lock(mu_);
    return high_water_;
  }

 private:
  std::optional<T> take_locked() {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  size_t high_water_ = 0;
  bool closed_ = false;
};

}  // namespace ldp

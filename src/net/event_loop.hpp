// Event-driven I/O core (§3: "Processes use event-driven programming to
// minimize state and scale to a large number of concurrent TCP
// connections"). One epoll instance plus a binary-heap timer queue; all
// callbacks run on the loop thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "util/clock.hpp"
#include "util/result.hpp"

namespace ldp::net {

/// RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

/// Readiness interest for a registered fd.
struct Interest {
  bool readable = false;
  bool writable = false;
};

class EventLoop {
 public:
  using IoCallback = std::function<void(bool readable, bool writable)>;
  using TimerCallback = std::function<void()>;
  using TimerId = uint64_t;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Register an fd; the callback fires with the ready directions. The fd
  /// must stay valid until remove_fd.
  Result<void> add_fd(int fd, Interest interest, IoCallback cb);
  Result<void> modify_fd(int fd, Interest interest);
  void remove_fd(int fd);

  /// One-shot timer at an absolute monotonic deadline (mono_now_ns clock).
  TimerId add_timer_at(TimeNs deadline, TimerCallback cb);
  /// One-shot timer after a relative delay.
  TimerId add_timer_after(TimeNs delay, TimerCallback cb) {
    return add_timer_at(mono_now_ns() + delay, std::move(cb));
  }
  void cancel_timer(TimerId id);

  /// Register a flush hook: runs once per poll round, after due timers and
  /// before the loop blocks in epoll_wait. This is the drain point for work
  /// staged during the previous round's callbacks and timers — the batched
  /// UDP senders stage datagrams as events arrive and flush them here, so a
  /// staged send can never sit across a blocking wait. Hooks cannot be
  /// removed; register them for the loop's lifetime.
  void add_flush_hook(std::function<void()> hook);

  /// Run callbacks until stop() or until nothing is registered.
  void run();
  /// Process at most one poll round (used by tests and hybrid drivers).
  void poll_once(TimeNs max_wait);

  /// Stop the loop. Thread-safe: callable from another thread to shut down
  /// a loop blocked in epoll_wait (used by bench/test server threads).
  /// Sticky: a stop that races ahead of run() still takes effect, and a
  /// stopped loop stays stopped (loops are single-use, never restarted).
  void stop();

  size_t fd_count() const { return callbacks_.size(); }
  size_t timer_count() const { return timer_callbacks_.size(); }

 private:
  struct Timer {
    TimeNs deadline;
    TimerId id;
    bool operator>(const Timer& o) const {
      if (deadline != o.deadline) return deadline > o.deadline;
      return id > o.id;  // FIFO among equal deadlines
    }
  };

  void fire_due_timers();
  void arm_timerfd();

  Fd epoll_;
  Fd timer_fd_;
  Fd wake_fd_;  // cross-thread stop signal
  std::unordered_map<int, IoCallback> callbacks_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  // Cancellation removes the callback entry; the heap node is discarded
  // lazily when it surfaces.
  std::unordered_map<TimerId, TimerCallback> timer_callbacks_;
  std::vector<std::function<void()>> flush_hooks_;
  // Heap head the timerfd was last armed for; 0 = disarmed.
  TimeNs armed_deadline_ = 0;
  TimerId next_timer_id_ = 1;
  std::atomic<bool> stopped_{false};
};

}  // namespace ldp::net

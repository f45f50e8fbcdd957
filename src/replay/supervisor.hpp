// Supervision for the self-healing replay pipeline: queriers publish
// heartbeats; one supervisor thread per engine watches them and, when one
// goes stale past a timeout without the worker having declared itself
// done, fires a recovery callback exactly once (the querier's distributor
// group reassigns its sources to a sibling and re-routes its in-flight
// work). The same thread doubles as the checkpoint ticker so a replay
// needs at most one background thread for both jobs.
//
// The supervisor never touches worker state itself — recovery callbacks
// own the handshake with the failed worker (see Querier park/reap in
// engine.cpp), keeping the failure-detection layer free of engine
// internals.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/clock.hpp"

namespace ldp::replay {

/// One worker's liveness signal. The worker beats from its own thread
/// (event-loop timer or queue-wait loop); the supervisor only reads.
/// mark_done() tells the supervisor the silence ahead is intentional
/// (normal completion), not a failure.
class Heartbeat {
 public:
  Heartbeat() : last_(mono_now_ns()) {}

  void beat() { last_.store(mono_now_ns(), std::memory_order_relaxed); }
  void mark_done() { done_.store(true, std::memory_order_release); }

  bool done() const { return done_.load(std::memory_order_acquire); }
  TimeNs last_beat() const { return last_.load(std::memory_order_relaxed); }

 private:
  std::atomic<TimeNs> last_;
  std::atomic<bool> done_{false};
};

/// Watches a fixed set of heartbeats from one background thread. Register
/// every watch before start(); the watch list is immutable while running
/// so the check loop needs no locking against registration.
class Supervisor {
 public:
  struct Config {
    TimeNs interval = 500 * kMilli;       ///< how often to check heartbeats
    TimeNs heartbeat_timeout = 5 * kSecond;  ///< stale past this = failed
    TimeNs checkpoint_interval = 0;       ///< 0 = no checkpoint callback
  };

  explicit Supervisor(Config config) : config_(config) {}
  ~Supervisor() { stop(); }

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Register a worker. `on_failure` runs on the supervisor thread, at most
  /// once per watch, when the heartbeat goes stale without mark_done().
  void watch(std::string name, Heartbeat* heartbeat,
             std::function<void()> on_failure);

  /// `fn` runs on the supervisor thread every checkpoint_interval.
  void set_checkpoint(std::function<void()> fn) { checkpoint_ = std::move(fn); }

  void start();
  /// Idempotent; joins the thread. After stop() no callback will run again.
  void stop();

  uint64_t failures_detected() const {
    return failures_.load(std::memory_order_relaxed);
  }

 private:
  struct Watch {
    std::string name;
    Heartbeat* heartbeat;
    std::function<void()> on_failure;
    bool fired = false;
  };

  void run();

  Config config_;
  std::vector<Watch> watches_;
  std::function<void()> checkpoint_;
  std::atomic<uint64_t> failures_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace ldp::replay

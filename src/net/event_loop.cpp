#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/log.hpp"

namespace ldp::net {

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {
uint32_t to_epoll_events(Interest interest) {
  uint32_t ev = 0;
  if (interest.readable) ev |= EPOLLIN;
  if (interest.writable) ev |= EPOLLOUT;
  return ev;
}
}  // namespace

EventLoop::EventLoop() : epoll_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (!epoll_.valid()) throw std::runtime_error("epoll_create1 failed");
  // Timers ride a timerfd so deadlines get nanosecond arming rather than
  // epoll_wait's millisecond timeout — the replay scheduler depends on
  // sub-millisecond wakeups (§4.2 validates ±ms-level timing).
  timer_fd_ = Fd(::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC));
  if (!timer_fd_.valid()) throw std::runtime_error("timerfd_create failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = timer_fd_.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, timer_fd_.get(), &ev) != 0)
    throw std::runtime_error("epoll_ctl(timerfd) failed");
  wake_fd_ = Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd_.valid()) throw std::runtime_error("eventfd failed");
  epoll_event wev{};
  wev.events = EPOLLIN;
  wev.data.fd = wake_fd_.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &wev) != 0)
    throw std::runtime_error("epoll_ctl(eventfd) failed");
}

void EventLoop::stop() {
  stopped_.store(true, std::memory_order_relaxed);
  uint64_t one = 1;
  ssize_t r = ::write(wake_fd_.get(), &one, sizeof(one));
  (void)r;
}

EventLoop::~EventLoop() = default;

Result<void> EventLoop::add_fd(int fd, Interest interest, IoCallback cb) {
  epoll_event ev{};
  ev.events = to_epoll_events(interest);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) != 0)
    return Err(std::string("epoll_ctl ADD: ") + std::strerror(errno));
  callbacks_[fd] = std::move(cb);
  return Ok();
}

Result<void> EventLoop::modify_fd(int fd, Interest interest) {
  epoll_event ev{};
  ev.events = to_epoll_events(interest);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) != 0)
    return Err(std::string("epoll_ctl MOD: ") + std::strerror(errno));
  return Ok();
}

void EventLoop::remove_fd(int fd) {
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
  callbacks_.erase(fd);
}

void EventLoop::arm_timerfd() {
  // Arm to the earliest live deadline (lazily skipping cancelled heap nodes).
  while (!timers_.empty() && !timer_callbacks_.contains(timers_.top().id))
    timers_.pop();
  TimeNs deadline = timers_.empty() ? 0 : timers_.top().deadline;
  // Unchanged head, no syscall: the one-shot timerfd still needs re-arming
  // after it fires, but fire_due_timers pops every passed deadline, so after
  // a fire the head always differs from what was armed.
  if (deadline == armed_deadline_) return;
  armed_deadline_ = deadline;
  itimerspec spec{};
  if (deadline != 0) {
    if (deadline <= mono_now_ns()) deadline = mono_now_ns() + 1;  // fire asap
    spec.it_value.tv_sec = deadline / kSecond;
    spec.it_value.tv_nsec = deadline % kSecond;
  }
  // All-zero spec disarms.
  ::timerfd_settime(timer_fd_.get(), TFD_TIMER_ABSTIME, &spec, nullptr);
}

EventLoop::TimerId EventLoop::add_timer_at(TimeNs deadline, TimerCallback cb) {
  TimerId id = next_timer_id_++;
  timers_.push(Timer{deadline, id});
  timer_callbacks_[id] = std::move(cb);
  arm_timerfd();
  return id;
}

void EventLoop::cancel_timer(TimerId id) {
  timer_callbacks_.erase(id);
  arm_timerfd();
}

void EventLoop::fire_due_timers() {
  TimeNs now = mono_now_ns();
  while (!timers_.empty() && timers_.top().deadline <= now) {
    Timer t = timers_.top();
    timers_.pop();
    auto it = timer_callbacks_.find(t.id);
    if (it == timer_callbacks_.end()) continue;  // cancelled
    TimerCallback cb = std::move(it->second);
    timer_callbacks_.erase(it);
    cb();
    now = mono_now_ns();
  }
  arm_timerfd();
}

void EventLoop::add_flush_hook(std::function<void()> hook) {
  flush_hooks_.push_back(std::move(hook));
}

void EventLoop::poll_once(TimeNs max_wait) {
  fire_due_timers();

  // Flush staged output before blocking: everything staged by the previous
  // round's fd callbacks / trailing timers and by the leading timers above
  // drains here, so epoll_wait never blocks on top of unsent work.
  for (const auto& hook : flush_hooks_) hook();

  int timeout_ms = -1;
  if (max_wait >= 0) timeout_ms = static_cast<int>((max_wait + kMilli - 1) / kMilli);

  epoll_event events[64];
  int n = ::epoll_wait(epoll_.get(), events, 64, timeout_ms);
  if (n < 0) {
    if (errno != EINTR) LDP_ERROR("event_loop", "epoll_wait: " << std::strerror(errno));
    return;
  }
  for (int i = 0; i < n; ++i) {
    int fd = events[i].data.fd;
    if (fd == timer_fd_.get()) {
      uint64_t expirations = 0;
      ssize_t r = ::read(timer_fd_.get(), &expirations, sizeof(expirations));
      (void)r;
      continue;  // timers fire below
    }
    if (fd == wake_fd_.get()) {
      uint64_t buf = 0;
      ssize_t r = ::read(wake_fd_.get(), &buf, sizeof(buf));
      (void)r;
      continue;  // stop flag is checked by run()
    }
    auto it = callbacks_.find(fd);
    if (it == callbacks_.end()) continue;  // removed by an earlier callback
    bool readable = (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0;
    bool writable = (events[i].events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0;
    // Copy: the callback may remove_fd(fd) and invalidate the iterator.
    IoCallback cb = it->second;
    cb(readable, writable);
  }

  fire_due_timers();
}

void EventLoop::run() {
  // stop() is sticky: a stop that lands before the loop thread reaches
  // run() must still win, or the shutdown request is lost and the caller's
  // join hangs. A stopped loop stays stopped; loops are not restarted.
  while (!stopped_.load(std::memory_order_relaxed) &&
         (!callbacks_.empty() || !timer_callbacks_.empty())) {
    poll_once(-1);
  }
}

}  // namespace ldp::net

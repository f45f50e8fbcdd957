// Tests for the event loop and socket layer: timer precision and ordering,
// UDP datagram round trips, TCP framing/reassembly, idle-timeout behaviour
// of the server frontend, and cross-thread stop.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <functional>
#include <map>
#include <thread>

#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "server/background.hpp"
#include "zone/parser.hpp"

namespace ldp::net {
namespace {

const Endpoint kLoopback{IpAddr{Ip4{127, 0, 0, 1}}, 0};

TEST(FdT, RaiiAndMove) {
  int raw = ::dup(0);
  ASSERT_GE(raw, 0);
  Fd a(raw);
  EXPECT_TRUE(a.valid());
  Fd b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.get(), raw);
}

TEST(EventLoopT, TimerFiresInOrder) {
  EventLoop loop;
  std::vector<int> order;
  TimeNs now = mono_now_ns();
  loop.add_timer_at(now + 30 * kMilli, [&] { order.push_back(3); });
  loop.add_timer_at(now + 10 * kMilli, [&] { order.push_back(1); });
  loop.add_timer_at(now + 20 * kMilli, [&] { order.push_back(2); });
  loop.run();  // exits when no timers remain
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopT, TimerPrecisionSubMillisecond) {
  // The replay scheduler claims ±ms accuracy; the timer layer must deliver
  // well under that on an idle loop.
  EventLoop loop;
  std::vector<TimeNs> errors;
  TimeNs base = mono_now_ns();
  for (int i = 1; i <= 20; ++i) {
    TimeNs deadline = base + i * 5 * kMilli;
    loop.add_timer_at(deadline, [&errors, deadline] {
      errors.push_back(mono_now_ns() - deadline);
    });
  }
  loop.run();
  ASSERT_EQ(errors.size(), 20u);
  std::sort(errors.begin(), errors.end());
  for (TimeNs e : errors) EXPECT_GE(e, 0);  // never early
  // Statistical bound: scheduler preemption on a loaded single-core box can
  // push individual wakeups out, but the typical case must be sub-ms.
  EXPECT_LT(errors[errors.size() / 2], kMilli) << "median wakeup late";
  EXPECT_LT(errors.back(), 100 * kMilli) << "worst-case wakeup far too late";
}

TEST(EventLoopT, CancelledTimerDoesNotFire) {
  EventLoop loop;
  bool fired = false;
  auto id = loop.add_timer_after(5 * kMilli, [&] { fired = true; });
  loop.add_timer_after(1 * kMilli, [&, id] { loop.cancel_timer(id); });
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoopT, EqualDeadlinesFifo) {
  EventLoop loop;
  std::vector<int> order;
  TimeNs t = mono_now_ns() + 5 * kMilli;
  for (int i = 0; i < 5; ++i) {
    loop.add_timer_at(t, [&order, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// The loop re-arms its timerfd only when the earliest deadline moves. The
// patterns below are where a wrongly skipped re-arm would strand a timer:
// each must fire every live timer exactly once, on time. FireLog::pump
// blocks up to kWait per round, so a stranded timer shows up as a fire
// about kWait late rather than as a hung test.
constexpr TimeNs kWait = 2 * kSecond;
constexpr TimeNs kTooLate = kSecond;

struct FireLog {
  EventLoop loop;
  std::map<int, int> fired;
  TimeNs worst_late = 0;

  EventLoop::TimerId add(int tag, TimeNs deadline) {
    // A timer added at a past deadline is due from the moment it is added.
    TimeNs due = std::max(deadline, mono_now_ns());
    return loop.add_timer_at(deadline, [this, tag, due] {
      ++fired[tag];
      worst_late = std::max(worst_late, mono_now_ns() - due);
    });
  }
  size_t total() const {
    size_t n = 0;
    for (const auto& [tag, count] : fired) n += static_cast<size_t>(count);
    return n;
  }
  void pump(size_t fires) {
    TimeNs give_up = mono_now_ns() + 3 * kWait;
    while (total() < fires && mono_now_ns() < give_up) loop.poll_once(kWait);
  }
  void expect_each_once(std::initializer_list<int> tags) {
    EXPECT_EQ(total(), tags.size());
    for (int tag : tags) EXPECT_EQ(fired[tag], 1) << "timer " << tag;
    EXPECT_LT(worst_late, kTooLate) << "a timer waited for an unrelated wake";
  }
};

TEST(TimerRearmT, ReaddedAtAPastDeadlineFires) {
  FireLog log;
  TimeNs now = mono_now_ns();
  log.add(0, now + 3600 * kSecond);  // the timerfd is armed far out
  TimeNs past = now - 10 * kMilli;
  log.add(1, past);  // fires in the first round
  // Re-added from a timer callback at the deadline that already fired.
  log.loop.add_timer_at(mono_now_ns() + 5 * kMilli,
                        [&log, past] { log.add(2, past); });
  // Re-added at the deadline the timerfd is armed for, after it expired:
  // a flush hook sleeps past that deadline and pokes a pipe, so one
  // epoll_wait returns both the timerfd and the pipe, and the pipe's
  // callback adds a timer at the expired deadline.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  Fd rd(fds[0]), wr(fds[1]);
  TimeNs soon = mono_now_ns() + 20 * kMilli;
  log.add(3, soon);
  bool poked = false;
  log.loop.add_flush_hook([&] {
    if (poked) return;
    poked = true;
    while (mono_now_ns() <= soon + kMilli)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(::write(wr.get(), "x", 1), 1);
  });
  ASSERT_TRUE(log.loop
                  .add_fd(rd.get(), Interest{true, false},
                          [&](bool, bool) {
                            char c;
                            ASSERT_EQ(::read(rd.get(), &c, 1), 1);
                            log.add(4, soon);
                          })
                  .ok());
  log.pump(4);
  log.loop.remove_fd(rd.get());
  log.expect_each_once({1, 2, 3, 4});
}

TEST(TimerRearmT, CancelHeadThenReaddAtSameDeadline) {
  FireLog log;
  TimeNs now = mono_now_ns();
  TimeNs head = now + 20 * kMilli;
  auto first = log.add(0, head);
  log.add(1, now + 3600 * kSecond);
  log.loop.cancel_timer(first);  // the far timer becomes the head
  log.add(2, head);              // and back again, at the same deadline
  auto second = log.add(3, head + 10 * kMilli);
  log.loop.cancel_timer(second);  // not the head: the armed deadline stays
  log.add(4, head + 10 * kMilli);
  log.pump(2);
  log.expect_each_once({2, 4});
}

TEST(TimerRearmT, TimerAddedFromTimerCallbackFires) {
  FireLog log;
  TimeNs now = mono_now_ns();
  log.add(0, now + 3600 * kSecond);
  // A chain: each link adds the next from inside its own callback.
  std::function<void(int)> link = [&](int i) {
    log.loop.add_timer_at(mono_now_ns() + 5 * kMilli, [&, i] {
      ++log.fired[10 + i];
      if (i < 4) link(i + 1);
    });
  };
  link(0);
  log.add(1, now + 15 * kMilli);  // interleaves with the chain
  log.pump(6);
  log.expect_each_once({1, 10, 11, 12, 13, 14});
}

TEST(TimerRearmT, HeapEmptiesAndRefills) {
  FireLog log;
  for (int round = 0; round < 4; ++round) {
    // Each round the heap drains to empty (the timerfd disarms), then
    // refills; a later round re-uses an earlier round's offset.
    log.add(round, mono_now_ns() + (round % 2 == 0 ? 5 : 15) * kMilli);
    log.pump(static_cast<size_t>(round) + 1);
    EXPECT_EQ(log.loop.timer_count(), 0u);
  }
  log.expect_each_once({0, 1, 2, 3});
}

TEST(EventLoopT, CrossThreadStop) {
  EventLoop loop;
  // A far-future timer keeps the loop alive indefinitely.
  loop.add_timer_after(3600 * kSecond, [] {});
  std::thread stopper([&loop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    loop.stop();
  });
  TimeNs start = mono_now_ns();
  loop.run();
  stopper.join();
  EXPECT_LT(mono_now_ns() - start, kSecond);  // stopped promptly, not in 1h
}

TEST(UdpSocketT, LoopbackRoundTrip) {
  auto server = UdpSocket::bind(kLoopback);
  ASSERT_TRUE(server.ok()) << server.error().message;
  auto server_ep = server->local_endpoint();
  ASSERT_TRUE(server_ep.ok());

  auto client = UdpSocket::bind(kLoopback);
  ASSERT_TRUE(client.ok());
  std::vector<uint8_t> payload = {1, 2, 3, 4};
  auto sent = client->send_to(*server_ep, payload);
  ASSERT_TRUE(sent.ok());
  EXPECT_TRUE(*sent);

  // Poll for arrival (loopback is fast but asynchronous).
  for (int i = 0; i < 100; ++i) {
    auto dg = server->recv();
    ASSERT_TRUE(dg.ok());
    if (dg->has_value()) {
      EXPECT_EQ((*dg)->payload, payload);
      auto client_ep = client->local_endpoint();
      ASSERT_TRUE(client_ep.ok());
      EXPECT_EQ((*dg)->from.port, client_ep->port);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "datagram never arrived";
}

TEST(TcpT, FramedMessagesReassembled) {
  auto listener = TcpListener::listen(kLoopback);
  ASSERT_TRUE(listener.ok());
  auto ep = listener->local_endpoint();
  ASSERT_TRUE(ep.ok());

  auto client = TcpStream::connect(*ep);
  ASSERT_TRUE(client.ok());

  // Accept (poll until the handshake completes).
  std::optional<TcpStream> serverside;
  for (int i = 0; i < 100 && !serverside.has_value(); ++i) {
    auto acc = listener->accept();
    ASSERT_TRUE(acc.ok());
    if (acc->has_value()) serverside = std::move(**acc);
    else std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(serverside.has_value());

  // Send three messages of different sizes in one burst.
  std::vector<std::vector<uint8_t>> sent = {
      std::vector<uint8_t>(10, 0xaa), std::vector<uint8_t>(1, 0xbb),
      std::vector<uint8_t>(5000, 0xcc)};
  for (const auto& m : sent) {
    auto r = client->send_message(m);
    ASSERT_TRUE(r.ok());
  }

  std::vector<std::vector<uint8_t>> got;
  for (int i = 0; i < 200 && got.size() < 3; ++i) {
    bool closed = false;
    auto msgs = serverside->read_messages(closed);
    ASSERT_TRUE(msgs.ok());
    for (auto& m : *msgs) got.push_back(std::move(m));
    if (got.size() < 3) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(got, sent);
}

TEST(TcpT, PeerCloseDetected) {
  auto listener = TcpListener::listen(kLoopback);
  ASSERT_TRUE(listener.ok());
  auto ep = listener->local_endpoint();
  ASSERT_TRUE(ep.ok());
  auto client = TcpStream::connect(*ep);
  ASSERT_TRUE(client.ok());

  std::optional<TcpStream> serverside;
  for (int i = 0; i < 100 && !serverside.has_value(); ++i) {
    auto acc = listener->accept();
    ASSERT_TRUE(acc.ok());
    if (acc->has_value()) serverside = std::move(**acc);
    else std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(serverside.has_value());

  client.value() = TcpStream::from_accepted(net::Fd(), Endpoint{});  // close client

  bool closed = false;
  for (int i = 0; i < 200 && !closed; ++i) {
    auto msgs = serverside->read_messages(closed);
    ASSERT_TRUE(msgs.ok());
    if (!closed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(closed);
}

// --- frontend integration over real sockets -------------------------------

server::AuthServer example_server() {
  server::AuthServer s;
  auto z = zone::parse_zone(R"(
$ORIGIN example.com.
$TTL 3600
@ IN SOA ns1 admin 1 7200 900 1209600 300
@ IN NS ns1
ns1 IN A 192.0.2.1
www IN A 192.0.2.80
)");
  EXPECT_TRUE(z.ok());
  EXPECT_TRUE(s.default_zones().add(std::move(*z)).ok());
  return s;
}

TEST(FrontendT, AnswersUdpQuery) {
  auto bg = server::BackgroundServer::start(example_server());
  ASSERT_TRUE(bg.ok()) << bg.error().message;

  auto client = UdpSocket::bind(kLoopback);
  ASSERT_TRUE(client.ok());
  dns::Message q =
      dns::Message::make_query(77, *dns::Name::parse("www.example.com"), dns::RRType::A);
  ASSERT_TRUE(client->send_to((*bg)->endpoint(), q.to_wire()).ok());

  for (int i = 0; i < 500; ++i) {
    auto dg = client->recv();
    ASSERT_TRUE(dg.ok());
    if (dg->has_value()) {
      auto msg = dns::Message::from_wire((*dg)->payload);
      ASSERT_TRUE(msg.ok());
      EXPECT_EQ(msg->header.id, 77);
      EXPECT_EQ(msg->header.rcode, dns::Rcode::NoError);
      EXPECT_EQ(msg->answers.size(), 1u);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "no UDP response";
}

TEST(FrontendT, AnswersTcpQueryAndTimesOutIdleConnections) {
  server::FrontendConfig cfg;
  cfg.tcp_idle_timeout = 200 * kMilli;
  cfg.sweep_interval = 50 * kMilli;
  auto bg = server::BackgroundServer::start(example_server(), cfg);
  ASSERT_TRUE(bg.ok()) << bg.error().message;

  auto stream = TcpStream::connect((*bg)->endpoint());
  ASSERT_TRUE(stream.ok());
  dns::Message q =
      dns::Message::make_query(88, *dns::Name::parse("www.example.com"), dns::RRType::A);
  // Nonblocking connect: queue the message once, then flush until written.
  auto first = stream->send_message(q.to_wire());
  ASSERT_TRUE(first.ok() || true);  // EAGAIN during connect is fine
  for (int i = 0; i < 200 && stream->pending_bytes() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    (void)stream->flush();
  }
  ASSERT_EQ(stream->pending_bytes(), 0u) << "could not send over TCP";

  bool got_reply = false, closed = false;
  for (int i = 0; i < 1000 && !got_reply; ++i) {
    auto msgs = stream->read_messages(closed);
    ASSERT_TRUE(msgs.ok());
    for (const auto& m : *msgs) {
      auto msg = dns::Message::from_wire(m);
      ASSERT_TRUE(msg.ok());
      EXPECT_EQ(msg->header.id, 88);
      got_reply = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(got_reply);

  // Sit idle past the timeout: the server must close the connection.
  for (int i = 0; i < 2000 && !closed; ++i) {
    auto msgs = stream->read_messages(closed);
    ASSERT_TRUE(msgs.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(closed);
  (*bg)->stop();
  EXPECT_EQ((*bg)->connections().closed_idle, 1u);
  EXPECT_EQ((*bg)->connections().established, 0u);
}

}  // namespace
}  // namespace ldp::net

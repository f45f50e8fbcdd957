// Query-lifecycle subsystem tests: PendingTable semantics (ID-collision
// FIFO matching, deadline-driven expiry, bounded size), UDP
// retransmit-on-timeout under ldp::fault packet loss (the engine's own
// deterministic impairment layer — the responder itself always answers),
// TCP reconnect-and-resend after a mid-flight connection loss, and the
// EngineReport timeout/retry/duplicate counters the fidelity analysis
// depends on.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "replay/checkpoint.hpp"
#include "replay/dist/protocol.hpp"
#include "replay/engine.hpp"
#include "replay/pending.hpp"
#include "synth/generator.hpp"

namespace ldp::replay {
namespace {

using trace::TraceRecord;

// ---------------------------------------------------------------------------
// PendingTable unit tests
// ---------------------------------------------------------------------------

PendingQuery make_pq(uint64_t key, uint16_t id, TimeNs deadline) {
  PendingQuery pq;
  pq.key = key;
  pq.dns_id = id;
  pq.send_index = static_cast<size_t>(key);
  pq.deadline = deadline;
  return pq;
}

TEST(PendingTableT, MatchRemovesOldestForCollidingIds) {
  PendingTable t;
  EXPECT_FALSE(t.insert(make_pq(1, 7, 100)));
  EXPECT_TRUE(t.insert(make_pq(2, 7, 200)));  // collision reported
  EXPECT_FALSE(t.insert(make_pq(3, 8, 300)));
  EXPECT_EQ(t.size(), 3u);

  auto first = t.match(7);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->key, 1u);  // FIFO: oldest wins
  auto second = t.match(7);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->key, 2u);
  EXPECT_FALSE(t.match(7).has_value());  // nothing live for the id now
  EXPECT_EQ(t.size(), 1u);
}

TEST(PendingTableT, TakeDueHonorsDeadlinesAndReinsertion) {
  PendingTable t;
  t.insert(make_pq(1, 1, 100));
  t.insert(make_pq(2, 2, 200));
  t.insert(make_pq(3, 3, 300));
  ASSERT_TRUE(t.next_deadline().has_value());
  EXPECT_EQ(*t.next_deadline(), 100);

  auto due = t.take_due(150);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].key, 1u);
  EXPECT_EQ(t.size(), 2u);

  // Retry: re-insert with a pushed-out deadline; the stale heap entry for
  // the old deadline must not resurface it early.
  due[0].deadline = 500;
  t.insert(std::move(due[0]));
  EXPECT_EQ(t.take_due(250).size(), 1u);  // key 2 only
  EXPECT_EQ(*t.next_deadline(), 300);
  auto rest = t.take_due(600);
  ASSERT_EQ(rest.size(), 2u);  // keys 3 then 1
  EXPECT_EQ(rest[0].key, 3u);
  EXPECT_EQ(rest[1].key, 1u);
  EXPECT_TRUE(t.empty());
}

TEST(PendingTableT, DrainReturnsSendOrder) {
  PendingTable t;
  t.insert(make_pq(5, 1, 100));
  t.insert(make_pq(2, 2, 50));
  t.insert(make_pq(9, 3, 75));
  auto all = t.drain();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].key, 2u);
  EXPECT_EQ(all[1].key, 5u);
  EXPECT_EQ(all[2].key, 9u);
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.next_deadline().has_value());
}

// The regression the tentpole exists for: unanswered queries must not
// accumulate. Simulates a 100k-query replay at 10k q/s where 10% of
// queries are never answered, with a 100 ms expiry window — table size
// must stay bounded by the window's worth of unanswered queries, not grow
// monotonically, and must drain to zero at the end.
TEST(PendingTableT, BoundedUnderSustainedLoss) {
  PendingTable t;
  const TimeNs kGap = kMilli / 10;      // 10k q/s
  const TimeNs kWindow = 100 * kMilli;  // expiry window
  const int kQueries = 100000;
  size_t max_size = 0;
  size_t expired = 0;
  for (int i = 0; i < kQueries; ++i) {
    TimeNs now = static_cast<TimeNs>(i) * kGap;
    t.insert(make_pq(static_cast<uint64_t>(i + 1),
                     static_cast<uint16_t>(i & 0xffff), now + kWindow));
    if (i % 10 != 0) {
      // 90% answered promptly.
      ASSERT_TRUE(t.match(static_cast<uint16_t>(i & 0xffff)).has_value());
    }
    expired += t.take_due(now).size();
    max_size = std::max(max_size, t.size());
  }
  expired += t.take_due(static_cast<TimeNs>(kQueries) * kGap + kWindow).size();
  // In-window unanswered load is (10k q/s × 0.1 s × 10%) = 100 entries;
  // allow slack for the one just-inserted live query per step.
  EXPECT_LE(max_size, 110u);
  EXPECT_EQ(expired, static_cast<size_t>(kQueries) / 10);
  EXPECT_TRUE(t.empty());
}

// ---------------------------------------------------------------------------
// Echo UDP responder: answers every query by echoing the payload with QR
// set. Loss is injected on the engine side by the ldp::fault layer, so the
// drop pattern is seed-deterministic instead of depending on responder
// receive order. With `hold_until` > 0 the first replies are held back until
// that many queries have arrived, which forces those queries to be in
// flight together however the querier spreads them over its sends.
// ---------------------------------------------------------------------------
class EchoUdpResponder {
 public:
  explicit EchoUdpResponder(uint64_t hold_until = 0) : hold_until_(hold_until) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
    socklen_t len = sizeof(sa);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len), 0);
    port_ = ntohs(sa.sin_port);
    timeval tv{0, 50 * 1000};  // 50 ms poll for the stop flag
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    thread_ = std::thread([this] { run(); });
  }

  ~EchoUdpResponder() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    ::close(fd_);
  }

  Endpoint endpoint() const {
    return Endpoint{IpAddr{Ip4{127, 0, 0, 1}}, port_};
  }
  uint64_t received() const { return received_.load(); }

 private:
  void run() {
    struct Held {
      std::vector<uint8_t> reply;
      sockaddr_in to;
    };
    std::vector<Held> held;
    uint8_t buf[4096];
    while (!stop_.load()) {
      sockaddr_in from{};
      socklen_t len = sizeof(from);
      ssize_t n = ::recvfrom(fd_, buf, sizeof(buf), 0,
                             reinterpret_cast<sockaddr*>(&from), &len);
      if (n < 0) continue;  // timeout: re-check stop flag
      uint64_t seen = received_.fetch_add(1) + 1;
      if (n >= 3) buf[2] |= 0x80;  // QR: make it a response
      held.push_back({std::vector<uint8_t>(buf, buf + n), from});
      if (seen < hold_until_) continue;
      for (const auto& h : held)
        ::sendto(fd_, h.reply.data(), h.reply.size(), 0,
                 reinterpret_cast<const sockaddr*>(&h.to), sizeof(h.to));
      held.clear();
    }
  }

  const uint64_t hold_until_;
  int fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> received_{0};
  std::thread thread_;
};

fault::FaultSpec loss_spec(double p, uint64_t seed) {
  fault::FaultSpec spec;
  spec.drop = p;
  spec.seed = seed;
  return spec;
}

std::vector<TraceRecord> small_udp_trace(size_t n, TimeNs gap) {
  synth::FixedTraceSpec spec;
  spec.interarrival_ns = gap;
  spec.duration_ns = static_cast<TimeNs>(n) * gap;
  spec.client_count = 4;
  return synth::make_fixed_trace(spec);
}

// With retry disabled, every fault-layer drop must surface as a timeout
// and an expired (lost) query — nothing silently disappears, and the
// counters are exact (the drop pattern is fixed by the seed).
TEST(QueryLifecycleT, RetryDisabledCountsEveryLoss) {
  EchoUdpResponder responder;

  auto trace = small_udp_trace(50, kMilli);
  EngineConfig cfg;
  cfg.server = responder.endpoint();
  cfg.timed = false;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.max_retries = 0;
  cfg.query_timeout = 200 * kMilli;
  cfg.drain_grace = 5 * kSecond;  // expiry, not the grace, ends the replay
  cfg.fault = loss_spec(0.2, 5);
  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  const uint64_t dropped = report->impairments.dropped;
  EXPECT_EQ(report->queries_sent, 50u);
  EXPECT_GT(dropped, 0u);
  EXPECT_LT(dropped, 50u);
  EXPECT_EQ(report->impairments.processed, 50u);
  EXPECT_EQ(responder.received(), 50u - dropped);
  EXPECT_EQ(report->responses_received, 50u - dropped);
  EXPECT_EQ(report->lifecycle.timeouts, dropped);
  EXPECT_EQ(report->lifecycle.expired, dropped);
  EXPECT_EQ(report->lifecycle.retries, 0u);
  EXPECT_EQ(report->lifecycle.duplicate_ids, 0u);

  uint64_t answered = 0, timed_out = 0;
  for (const auto& sr : report->sends) {
    if (sr.outcome == QueryOutcome::Answered) {
      ++answered;
      EXPECT_GE(sr.latency, 0);
    } else {
      EXPECT_EQ(sr.outcome, QueryOutcome::TimedOut);
      EXPECT_EQ(sr.latency, -1);
      ++timed_out;
    }
  }
  EXPECT_EQ(answered, 50u - dropped);
  EXPECT_EQ(timed_out, dropped);
}

// With retry enabled, retransmits recover the dropped queries: ≥99% get
// answers, every fault-layer drop is accounted as a timeout, and every
// timeout that had budget left becomes a retry.
TEST(QueryLifecycleT, RetryRecoversDroppedQueries) {
  EchoUdpResponder responder;

  auto trace = small_udp_trace(100, kMilli / 2);
  EngineConfig cfg;
  cfg.server = responder.endpoint();
  cfg.timed = false;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.max_retries = 4;
  cfg.query_timeout = 150 * kMilli;
  cfg.retry_backoff_cap = 400 * kMilli;
  cfg.drain_grace = 10 * kSecond;
  cfg.fault = loss_spec(0.2, 5);
  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  const uint64_t dropped = report->impairments.dropped;
  EXPECT_EQ(report->queries_sent, 100u);
  EXPECT_GT(dropped, 0u);
  EXPECT_GE(report->responses_received, 99u);
  EXPECT_LE(report->lifecycle.expired, 1u);
  // Exact accounting: each fault-layer drop (initial send or retransmit)
  // fires exactly one timeout, and each timeout either retried or expired
  // the query.
  EXPECT_EQ(report->lifecycle.timeouts, dropped);
  EXPECT_EQ(report->lifecycle.timeouts,
            report->lifecycle.retries + report->lifecycle.expired);
  // Every dropped send with budget left was retried.
  EXPECT_GE(report->lifecycle.retries, 1u);
  // Every answered query that needed a retransmit is attributed.
  EXPECT_GE(report->lifecycle.answered_after_retry, 1u);
  EXPECT_LE(report->lifecycle.answered_after_retry, dropped);
  // Conservation: every query is either answered or counted lost.
  EXPECT_EQ(report->responses_received + report->lifecycle.expired, 100u);
}

// Two same-source queries that share a DNS id must both stay matchable:
// the old map-clobber behaviour orphaned the first one permanently. The
// responder holds its replies until both queries have arrived, so the two
// are in flight together even when the querier sends them in separate
// rounds (an instant echo could answer the first before the second left).
TEST(QueryLifecycleT, DuplicateIdsBothAnswered) {
  EchoUdpResponder responder(/*hold_until=*/2);  // clean link: no fault spec

  std::vector<TraceRecord> trace;
  IpAddr client{Ip4{10, 1, 1, 1}};
  for (int i = 0; i < 2; ++i) {
    dns::Message q = dns::Message::make_query(
        0x1234, *dns::Name::parse("dup" + std::to_string(i) + ".example.com"),
        dns::RRType::A);
    trace.push_back(trace::make_query_record(i * kMilli, Endpoint{client, 40000},
                                             Endpoint{IpAddr{}, 53}, q));
  }

  EngineConfig cfg;
  cfg.server = responder.endpoint();
  cfg.timed = false;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.drain_grace = 3 * kSecond;
  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  EXPECT_EQ(report->queries_sent, 2u);
  EXPECT_EQ(report->responses_received, 2u);
  EXPECT_EQ(report->lifecycle.duplicate_ids, 1u);
  EXPECT_EQ(report->lifecycle.expired, 0u);
  for (const auto& sr : report->sends) {
    EXPECT_EQ(sr.outcome, QueryOutcome::Answered);
    EXPECT_GE(sr.latency, 0);
  }
}

// Engine-level boundedness: a timed replay where the fault layer drops 10%
// must keep the in-flight table bounded by the expiry window, far below
// the total query count.
TEST(QueryLifecycleT, InFlightBoundedDuringLossyTimedReplay) {
  EchoUdpResponder responder;

  auto trace = small_udp_trace(2000, kMilli / 2);  // 2000 q/s for 1 s
  EngineConfig cfg;
  cfg.server = responder.endpoint();
  cfg.timed = true;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.max_retries = 0;
  cfg.query_timeout = 100 * kMilli;  // expiry window
  cfg.drain_grace = 2 * kSecond;
  cfg.fault = loss_spec(0.1, 5);
  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  EXPECT_EQ(report->queries_sent, 2000u);
  // Expiry window holds ≤ ~(rate × window) = 200 unanswered + answered
  // in-flight transients; generous CI bound still far below the total.
  EXPECT_LT(report->max_in_flight, 1000u);
  EXPECT_EQ(report->responses_received + report->lifecycle.expired, 2000u);
}

// ---------------------------------------------------------------------------
// Flaky TCP responder: the first accepted connection reads one framed
// query and closes without answering; every later connection answers all
// queries. Exercises reconnect-and-resend.
// ---------------------------------------------------------------------------
class FlakyTcpResponder {
 public:
  FlakyTcpResponder() {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
    EXPECT_EQ(::listen(fd_, 8), 0);
    socklen_t len = sizeof(sa);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len), 0);
    port_ = ntohs(sa.sin_port);
    thread_ = std::thread([this] { run(); });
  }

  ~FlakyTcpResponder() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    ::close(fd_);
  }

  Endpoint endpoint() const {
    return Endpoint{IpAddr{Ip4{127, 0, 0, 1}}, port_};
  }
  int connections() const { return connections_.load(); }

 private:
  // Read exactly n bytes with a stop-aware timeout; false on EOF/stop.
  bool read_full(int cfd, uint8_t* out, size_t n) {
    size_t got = 0;
    while (got < n && !stop_.load()) {
      ssize_t r = ::recv(cfd, out + got, n - got, 0);
      if (r == 0) return false;
      if (r < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
        return false;
      }
      got += static_cast<size_t>(r);
    }
    return got == n;
  }

  void run() {
    while (!stop_.load()) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) continue;
      int cfd = ::accept(fd_, nullptr, nullptr);
      if (cfd < 0) continue;
      timeval tv{0, 50 * 1000};
      ::setsockopt(cfd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      int conn = connections_.fetch_add(1) + 1;
      uint8_t hdr[2];
      while (read_full(cfd, hdr, 2)) {
        size_t frame = static_cast<size_t>(hdr[0]) << 8 | hdr[1];
        std::vector<uint8_t> payload(frame);
        if (!read_full(cfd, payload.data(), frame)) break;
        if (conn == 1) break;  // flaky: swallow the query, drop the conn
        if (payload.size() >= 3) payload[2] |= 0x80;  // QR
        std::vector<uint8_t> out;
        out.push_back(hdr[0]);
        out.push_back(hdr[1]);
        out.insert(out.end(), payload.begin(), payload.end());
        ::send(cfd, out.data(), out.size(), MSG_NOSIGNAL);
      }
      ::close(cfd);
    }
  }

  int fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int> connections_{0};
  std::thread thread_;
};

TEST(QueryLifecycleT, TcpReconnectResendsPendingQueries) {
  FlakyTcpResponder responder;

  std::vector<TraceRecord> trace;
  IpAddr client{Ip4{10, 2, 2, 2}};
  for (int i = 0; i < 3; ++i) {
    dns::Message q = dns::Message::make_query(
        static_cast<uint16_t>(100 + i),
        *dns::Name::parse("t" + std::to_string(i) + ".example.com"),
        dns::RRType::A);
    trace.push_back(trace::make_query_record(i * kMilli, Endpoint{client, 41000},
                                             Endpoint{IpAddr{}, 53}, q,
                                             Transport::Tcp));
  }

  EngineConfig cfg;
  cfg.server = responder.endpoint();
  cfg.timed = false;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.max_retries = 2;
  cfg.query_timeout = kSecond;
  cfg.drain_grace = 5 * kSecond;
  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  EXPECT_EQ(report->queries_sent, 3u);
  EXPECT_EQ(report->responses_received, 3u);
  EXPECT_GE(report->lifecycle.tcp_reconnects, 1u);
  EXPECT_GE(report->lifecycle.retries, 1u);
  EXPECT_GE(report->connections_opened, 2u);
  EXPECT_GE(responder.connections(), 2);
  for (const auto& sr : report->sends)
    EXPECT_EQ(sr.outcome, QueryOutcome::Answered);
}

// Without reconnect, queries stranded on a lost connection must be counted
// as lost — not leaked as silent forever-pending entries.
TEST(QueryLifecycleT, TcpLossWithoutReconnectCountsExpired) {
  FlakyTcpResponder responder;

  std::vector<TraceRecord> trace;
  dns::Message q = dns::Message::make_query(
      7, *dns::Name::parse("lost.example.com"), dns::RRType::A);
  trace.push_back(trace::make_query_record(0, Endpoint{IpAddr{Ip4{10, 3, 3, 3}}, 42000},
                                           Endpoint{IpAddr{}, 53}, q,
                                           Transport::Tcp));

  EngineConfig cfg;
  cfg.server = responder.endpoint();
  cfg.timed = false;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.tcp_reconnect = false;
  cfg.query_timeout = kSecond;
  cfg.drain_grace = 3 * kSecond;
  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  EXPECT_EQ(report->queries_sent, 1u);
  EXPECT_EQ(report->responses_received, 0u);
  EXPECT_EQ(report->lifecycle.expired, 1u);
  EXPECT_EQ(report->lifecycle.tcp_reconnects, 0u);
  EXPECT_EQ(report->sends[0].outcome, QueryOutcome::Errored);
}

// A query still pending when the drain grace ends the run is abandoned:
// counted expired and abandoned alike, never silently lost, and the count
// survives the worker REPORT and the checkpoint.
TEST(QueryLifecycleT, DrainGraceAbandonsPendingQueries) {
  EchoUdpResponder responder(/*hold_until=*/UINT64_MAX);  // never answers

  auto trace = small_udp_trace(10, kMilli);
  EngineConfig cfg;
  cfg.server = responder.endpoint();
  cfg.timed = false;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.query_timeout = 5 * kSecond;  // outlasts the grace: nothing times out
  cfg.drain_grace = 200 * kMilli;
  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  EXPECT_EQ(report->queries_sent, trace.size());
  EXPECT_EQ(report->responses_received, 0u);
  EXPECT_EQ(report->lifecycle.timeouts, 0u);
  EXPECT_GT(report->lifecycle.expired, 0u);
  EXPECT_EQ(report->lifecycle.abandoned, report->lifecycle.expired);
  EXPECT_TRUE(report->conserved());

  auto back = dist::parse_report(dist::encode_report(*report));
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back->lifecycle.abandoned, report->lifecycle.abandoned);
  CheckpointState st;
  st.partial.lifecycle = report->lifecycle;
  auto ckpt = parse_checkpoint(serialize_checkpoint(st));
  ASSERT_TRUE(ckpt.ok()) << ckpt.error().message;
  EXPECT_EQ(ckpt->partial.lifecycle.abandoned, report->lifecycle.abandoned);
}

}  // namespace
}  // namespace ldp::replay

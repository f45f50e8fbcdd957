// UDP hot-path regression suite (`ctest -L hotpath` / check_hotpath):
// sendmmsg/recvmmsg batching (chunking, partial-batch prefixes, would-block
// handling, the per-thread receive arena), the addressing and TCP-framing
// fixes that rode along, seeded impairment-draw equivalence between the
// scalar and batched send paths, scalar-vs-batched replay-engine equivalence
// under a fixed-seed fault scenario at few and many sources, the response
// template cache (byte-identical patched replies, DO-bit keying, revision
// invalidation, LRU bounds), and the in-place name decoder against its
// hostile-input contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dns/message.hpp"
#include "dns/name.hpp"
#include "fault/fault.hpp"
#include "net/event_loop.hpp"
#include "net/impaired.hpp"
#include "net/socket.hpp"
#include "replay/engine.hpp"
#include "server/auth_server.hpp"
#include "server/background.hpp"
#include "server/frontend.hpp"
#include "server/response_cache.hpp"
#include "synth/generator.hpp"
#include "util/bytes.hpp"
#include "zone/parser.hpp"

namespace ldp {
namespace {

using dns::Message;
using dns::Name;
using dns::RRType;

const Endpoint kLoopback{IpAddr{Ip4{127, 0, 0, 1}}, 0};

Endpoint v6_endpoint() {
  std::array<uint8_t, 16> bytes{};
  bytes[15] = 1;  // ::1
  return Endpoint{IpAddr{Ip6{bytes}}, 5353};
}

std::vector<uint8_t> make_payload(size_t i, size_t len = 24) {
  std::vector<uint8_t> p(len);
  for (size_t j = 0; j < len; ++j)
    p[j] = static_cast<uint8_t>((i * 131 + j * 7) & 0xff);
  return p;
}

// Drain everything currently deliverable on `sock` (retrying for up to
// `budget` after the last arrival) and return the payloads.
std::vector<std::vector<uint8_t>> drain_udp(net::UdpSocket& sock,
                                            TimeNs budget = 300 * kMilli) {
  std::vector<std::vector<uint8_t>> got;
  TimeNs last = mono_now_ns();
  while (mono_now_ns() - last < budget) {
    auto batch = sock.recv_batch();
    EXPECT_TRUE(batch.ok()) << (batch.ok() ? "" : batch.error().message);
    if (!batch.ok()) return got;
    if (batch->empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    for (const auto& view : *batch)
      got.emplace_back(view.payload.begin(), view.payload.end());
    last = mono_now_ns();
  }
  return got;
}

TEST(UdpBatchT, RoundTripAcrossChunkBoundaries) {
  auto tx = net::UdpSocket::bind(kLoopback);
  auto rx = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(tx.ok() && rx.ok());
  Endpoint dst = *rx->local_endpoint();

  // 40 datagrams > 2 * kBatchSize: exercises internal sendmmsg chunking.
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<net::UdpSocket::OutDatagram> dgs;
  for (size_t i = 0; i < 40; ++i) {
    payloads.push_back(make_payload(i, 20 + i));
    dgs.push_back({dst, payloads.back()});
  }
  auto sent = tx->send_batch(dgs);
  ASSERT_TRUE(sent.ok()) << sent.error().message;
  EXPECT_EQ(*sent, dgs.size());

  auto got = drain_udp(*rx);
  ASSERT_EQ(got.size(), payloads.size());
  std::sort(got.begin(), got.end());
  std::sort(payloads.begin(), payloads.end());
  EXPECT_EQ(got, payloads);
}

TEST(UdpBatchT, EmptyRecvBatchMeansWouldBlock) {
  auto rx = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(rx.ok());
  auto batch = rx->recv_batch();
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
}

TEST(UdpBatchT, HardErrorShortensPrefixThenSurfacesOnRetry) {
  auto tx = net::UdpSocket::bind(kLoopback);
  auto rx = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(tx.ok() && rx.ok());
  Endpoint dst = *rx->local_endpoint();

  std::vector<uint8_t> small = make_payload(1);
  std::vector<uint8_t> oversized(70000, 0xab);  // > max UDP payload: EMSGSIZE
  std::vector<uint8_t> tail = make_payload(2);
  std::vector<net::UdpSocket::OutDatagram> dgs{
      {dst, small}, {dst, oversized}, {dst, tail}};

  // Same contract as a false send_to: the clean prefix is reported, the
  // caller owns the tail.
  auto first = tx->send_batch(dgs);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1u);

  // Retrying the tail puts the failing datagram first: zero progress, so
  // the hard error surfaces.
  auto retry = tx->send_batch(std::span(dgs).subspan(1));
  EXPECT_FALSE(retry.ok());

  // The path recovers: the datagram after the bad one still goes out.
  auto last = tx->send_batch(std::span(dgs).subspan(2));
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, 1u);
  EXPECT_EQ(drain_udp(*rx).size(), 2u);
}

TEST(UdpBatchT, MidBatchAddressingErrorYieldsCleanPrefix) {
  auto tx = net::UdpSocket::bind(kLoopback);
  auto rx = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(tx.ok() && rx.ok());
  Endpoint dst = *rx->local_endpoint();

  std::vector<uint8_t> a = make_payload(1);
  std::vector<uint8_t> b = make_payload(2);
  std::vector<net::UdpSocket::OutDatagram> dgs{
      {dst, a}, {v6_endpoint(), b}, {dst, b}};
  auto first = tx->send_batch(dgs);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1u);
  auto retry = tx->send_batch(std::span(dgs).subspan(1));
  EXPECT_FALSE(retry.ok());
}

// Resident set size of this process in KiB, from /proc/self/status.
long vm_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  return -1;
}

// A replay binds one socket per trace source. The recv arena belongs to
// the draining thread, so each further socket drained costs no arena (a
// 1 MiB per-socket arena would grow RSS by about 64 MiB here).
TEST(UdpBatchT, RecvArenaIsPerThreadNotPerSocket) {
  constexpr size_t kSockets = 64;
  auto tx = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(tx.ok());
  std::vector<net::UdpSocket> rxs;
  for (size_t i = 0; i < kSockets; ++i) {
    auto rx = net::UdpSocket::bind(kLoopback);
    ASSERT_TRUE(rx.ok()) << rx.error().message;
    rxs.push_back(std::move(*rx));
  }
  long rss_before = vm_rss_kb();
  ASSERT_GT(rss_before, 0);
  for (size_t i = 0; i < kSockets; ++i) {
    std::vector<uint8_t> payload = make_payload(i);
    auto sent = tx->send_to(*rxs[i].local_endpoint(), payload);
    ASSERT_TRUE(sent.ok() && *sent);
    auto got = drain_udp(rxs[i], 20 * kMilli);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], payload);
  }
  long grown_kb = vm_rss_kb() - rss_before;
  EXPECT_LT(grown_kb, 16 * 1024) << "RSS grew " << grown_kb << " KiB for "
                                 << kSockets << " drained sockets";
}

// Two threads draining their own sockets at once each see exactly their
// own datagrams: one thread's recv_batch never reuses the other's arena.
TEST(UdpBatchT, ConcurrentDrainsKeepTheirOwnPayloads) {
  constexpr size_t kPerThread = 64;
  auto tx = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(tx.ok());
  std::vector<net::UdpSocket> rxs;
  std::vector<std::vector<std::vector<uint8_t>>> want(2);
  for (size_t t = 0; t < 2; ++t) {
    auto rx = net::UdpSocket::bind(kLoopback);
    ASSERT_TRUE(rx.ok());
    rxs.push_back(std::move(*rx));
    for (size_t i = 0; i < kPerThread; ++i)
      want[t].push_back(make_payload(t * 1000 + i, 32 + t));
  }

  std::atomic<int> ready{0};
  std::vector<std::vector<std::vector<uint8_t>>> got(2);
  auto drain = [&](size_t t) {
    ready.fetch_add(1);
    TimeNs deadline = mono_now_ns() + 5 * kSecond;
    while (got[t].size() < kPerThread && mono_now_ns() < deadline) {
      auto batch = rxs[t].recv_batch();
      if (!batch.ok()) return;
      if (batch->empty()) std::this_thread::yield();
      for (const auto& view : *batch)
        got[t].emplace_back(view.payload.begin(), view.payload.end());
    }
  };
  std::thread a(drain, 0), b(drain, 1);
  while (ready.load() < 2) std::this_thread::yield();
  // Interleave the sends so both threads drain at the same time.
  for (size_t i = 0; i < kPerThread; ++i)
    for (size_t t = 0; t < 2; ++t) {
      auto sent = tx->send_to(*rxs[t].local_endpoint(), want[t][i]);
      EXPECT_TRUE(sent.ok() && *sent);
    }
  a.join();
  b.join();
  for (size_t t = 0; t < 2; ++t) {
    std::sort(got[t].begin(), got[t].end());
    std::sort(want[t].begin(), want[t].end());
    EXPECT_EQ(got[t], want[t]) << "thread " << t;
  }
}

TEST(AddressingT, NonV4EndpointsAreErrorsNotZeroAddress) {
  Endpoint v6 = v6_endpoint();
  EXPECT_FALSE(net::SockAddr::from_endpoint(v6).ok());
  EXPECT_FALSE(net::UdpSocket::bind(v6).ok());
  EXPECT_FALSE(net::TcpStream::connect(v6).ok());

  auto sock = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(sock.ok());
  std::vector<uint8_t> payload = make_payload(0);
  EXPECT_FALSE(sock->send_to(v6, payload).ok());
  std::vector<net::UdpSocket::OutDatagram> dgs{{v6, payload}};
  EXPECT_FALSE(sock->send_batch(dgs).ok());
}

// Every replay source binds its own 127.0.0.1:0 socket. With SO_REUSEADDR
// on such binds, Linux may hand two sockets the same ephemeral port, and
// the later one then receives the other's replies: a whole source's
// answers vanished under parallel load. Ephemeral binds must get distinct
// ports (800 binds met about a dozen repeats when the option was set).
TEST(AddressingT, EphemeralUdpBindsNeverShareAPort) {
  std::vector<net::UdpSocket> socks;
  std::vector<uint16_t> ports;
  for (int i = 0; i < 800; ++i) {
    auto sock = net::UdpSocket::bind(kLoopback);
    ASSERT_TRUE(sock.ok()) << sock.error().message;
    auto local = sock->local_endpoint();
    ASSERT_TRUE(local.ok());
    ports.push_back(local->port);
    socks.push_back(std::move(*sock));
  }
  std::sort(ports.begin(), ports.end());
  EXPECT_EQ(std::adjacent_find(ports.begin(), ports.end()), ports.end())
      << "two ephemeral UDP sockets share a port";
}

TEST(FramingT, OversizedTcpMessageRejectedNotTruncated) {
  auto listener = net::TcpListener::listen(kLoopback);
  ASSERT_TRUE(listener.ok());
  auto stream = net::TcpStream::connect(*listener->local_endpoint());
  ASSERT_TRUE(stream.ok());

  // 65535 octets is the largest frame the 2-byte prefix can describe.
  std::vector<uint8_t> max_frame(65535, 0x5a);
  EXPECT_TRUE(stream->send_message(max_frame).ok());

  // One octet more used to silently truncate the length prefix and
  // desynchronize the stream; now it is an error before any byte moves.
  size_t pending_before = stream->pending_bytes();
  std::vector<uint8_t> too_big(65536, 0x5a);
  auto sent = stream->send_message(too_big);
  EXPECT_FALSE(sent.ok());
  EXPECT_EQ(stream->pending_bytes(), pending_before);
}

TEST(IoCountersT, BatchedPathAmortizesSyscalls) {
  auto tx = net::UdpSocket::bind(kLoopback);
  auto rx = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(tx.ok() && rx.ok());
  Endpoint dst = *rx->local_endpoint();

  std::vector<std::vector<uint8_t>> payloads;
  std::vector<net::UdpSocket::OutDatagram> dgs;
  for (size_t i = 0; i < 16; ++i) {
    payloads.push_back(make_payload(i));
    dgs.push_back({dst, payloads.back()});
  }
  net::IoCounters before = net::io_counters();
  auto sent = tx->send_batch(dgs);
  ASSERT_TRUE(sent.ok());
  ASSERT_EQ(*sent, dgs.size());
  net::IoCounters after = net::io_counters();
  EXPECT_EQ(after.sendmmsg_calls - before.sendmmsg_calls, 1u);
  EXPECT_EQ(after.datagrams_sent - before.datagrams_sent, 16u);
  EXPECT_EQ(drain_udp(*rx).size(), 16u);
}

// ---------------------------------------------------------------------------
// Seeded impairment-draw equivalence: the batched path must consume the
// per-packet draw schedule in input order, exactly as the scalar path does,
// so fixed-seed counters are identical however sends are batched.
// ---------------------------------------------------------------------------

fault::FaultSpec lossy_spec() {
  fault::FaultSpec spec;
  spec.drop = 0.3;
  spec.dup = 0.2;
  spec.corrupt = 0.2;
  spec.seed = 42;
  return spec;
}

TEST(ImpairedBatchT, FixedSeedDrawScheduleMatchesScalar) {
  constexpr size_t kPackets = 64;
  fault::FaultSpec spec = lossy_spec();

  // Scalar reference: one send_to per datagram.
  auto rx1 = net::UdpSocket::bind(kLoopback);
  auto tx1 = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(rx1.ok() && tx1.ok());
  fault::FaultStream scalar_stream(spec, "equiv");
  net::ImpairedUdpSocket scalar(std::move(*tx1), &scalar_stream);
  Endpoint dst1 = *rx1->local_endpoint();
  for (size_t i = 0; i < kPackets; ++i) {
    auto sent = scalar.send_to(dst1, make_payload(i));
    ASSERT_TRUE(sent.ok());
    EXPECT_TRUE(*sent);
  }

  // Batched: same datagrams in uneven chunks (7 at a time) so draws cross
  // both caller-batch and internal sendmmsg boundaries.
  auto rx2 = net::UdpSocket::bind(kLoopback);
  auto tx2 = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(rx2.ok() && tx2.ok());
  fault::FaultStream batched_stream(spec, "equiv");
  net::ImpairedUdpSocket batched(std::move(*tx2), &batched_stream);
  Endpoint dst2 = *rx2->local_endpoint();
  std::vector<std::vector<uint8_t>> payloads;
  for (size_t i = 0; i < kPackets; ++i) payloads.push_back(make_payload(i));
  std::vector<uint8_t> wire;
  for (size_t base = 0; base < kPackets; base += 7) {
    std::vector<net::UdpSocket::OutDatagram> dgs;
    for (size_t i = base; i < std::min(base + 7, kPackets); ++i)
      dgs.push_back({dst2, payloads[i]});
    ASSERT_TRUE(batched.send_batch(dgs, wire).ok());
    ASSERT_EQ(wire.size(), dgs.size());
    for (uint8_t w : wire) EXPECT_EQ(w, 1u);
  }

  EXPECT_EQ(scalar_stream.counters(), batched_stream.counters());

  // Same verdicts in the same order ⇒ the delivered byte streams agree
  // too (corruption draws included).
  auto got1 = drain_udp(*rx1);
  auto got2 = drain_udp(*rx2);
  std::sort(got1.begin(), got1.end());
  std::sort(got2.begin(), got2.end());
  EXPECT_EQ(got1, got2);
  uint64_t expected = kPackets - scalar_stream.counters().lost() +
                      scalar_stream.counters().duplicated;
  EXPECT_EQ(got1.size(), expected);
}

// ---------------------------------------------------------------------------
// Replay-engine equivalence: a fixed-seed impaired replay must report the
// same impairment counters and send accounting whether the querier sends
// scalar or batched.
// ---------------------------------------------------------------------------

server::AuthServer wildcard_server() {
  server::AuthServer s;
  auto z = zone::parse_zone(R"(
$ORIGIN example.com.
$TTL 3600
@ IN SOA ns1 admin 1 7200 900 1209600 300
@ IN NS ns1
ns1 IN A 192.0.2.1
* IN A 192.0.2.80
)");
  EXPECT_TRUE(z.ok());
  EXPECT_TRUE(s.default_zones().add(std::move(*z)).ok());
  return s;
}

replay::EngineReport run_replay(bool batched_io,
                                const std::optional<fault::FaultSpec>& fault,
                                size_t clients = 8,
                                TimeNs timeout = 100 * kMilli) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  EXPECT_TRUE(bg.ok());

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = kMilli;
  spec.duration_ns = 200 * kMilli;  // 200 queries
  spec.client_count = clients;
  auto trace = synth::make_fixed_trace(spec);

  replay::EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.timed = false;
  cfg.batched_io = batched_io;
  cfg.fault = fault;
  cfg.query_timeout = timeout;
  cfg.retry_backoff_cap = 2 * timeout;
  cfg.max_retries = 1;
  cfg.drain_grace = 5 * timeout;
  replay::QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report->queries_sent, trace.size());
  return std::move(*report);
}

TEST(EngineEquivT, BatchedCleanRunAnswersEverything) {
  auto report = run_replay(/*batched_io=*/true, std::nullopt);
  EXPECT_EQ(report.responses_received, report.queries_sent);
  EXPECT_EQ(report.send_errors, 0u);
  EXPECT_EQ(report.lifecycle.expired, 0u);
}

TEST(EngineEquivT, ScalarKnobStillWorks) {
  auto report = run_replay(/*batched_io=*/false, std::nullopt);
  EXPECT_EQ(report.responses_received, report.queries_sent);
  EXPECT_EQ(report.send_errors, 0u);
}

TEST(EngineEquivT, FixedSeedFaultCountersMatchScalarPath) {
  fault::FaultSpec spec;
  spec.drop = 0.25;
  spec.dup = 0.1;
  spec.corrupt = 0.1;
  spec.seed = 7;

  // 256 clients: a source per query, so most poll rounds stage sends on
  // several sockets and the flush walks a many-entry staged list. Counters
  // match only if no answer outlives its timeout; the 200-query burst from
  // 256 fresh sockets queues longer at the server (answers near 160 ms
  // under ThreadSanitizer), so that run gets a longer timeout.
  struct Case {
    size_t clients;
    TimeNs timeout;
  };
  for (Case c : {Case{8, 100 * kMilli}, Case{256, 400 * kMilli}}) {
    SCOPED_TRACE("clients=" + std::to_string(c.clients));
    auto scalar = run_replay(/*batched_io=*/false, spec, c.clients, c.timeout);
    auto batched = run_replay(/*batched_io=*/true, spec, c.clients, c.timeout);

    // The acceptance bar: per-source draw schedules are identical, so the
    // merged impairment counters agree exactly.
    EXPECT_EQ(scalar.impairments, batched.impairments);
    EXPECT_EQ(scalar.queries_sent, batched.queries_sent);
    EXPECT_EQ(scalar.sends.size(), batched.sends.size());
    EXPECT_EQ(scalar.responses_received, batched.responses_received);
    EXPECT_EQ(scalar.lifecycle.retries, batched.lifecycle.retries);
    EXPECT_EQ(scalar.lifecycle.expired, batched.lifecycle.expired);
    EXPECT_GT(batched.impairments.dropped, 0u);  // the scenario actually bit
  }
}

// The server drains its UDP socket with recvmmsg and stops after a short
// batch (the loop is level-triggered), so a lone query costs one recvmmsg,
// not a second one that only hears EAGAIN.
TEST(IoCountersT, ServerDrainStopsAfterShortBatch) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());
  auto client = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(client.ok());

  constexpr size_t kExchanges = 50;
  net::IoCounters before = net::io_counters();
  size_t answered = 0;
  for (size_t k = 0; k < kExchanges; ++k) {
    auto q = Message::make_query(static_cast<uint16_t>(k),
                                 *Name::parse("q" + std::to_string(k) + ".example.com"),
                                 RRType::A, false)
                 .to_wire();
    auto sent = client->send_to((*bg)->endpoint(), q);
    ASSERT_TRUE(sent.ok() && *sent);
    // Wait for the reply (scalar recv: it counts as recvfrom, not recvmmsg)
    // so every query reaches the server on its own.
    TimeNs give_up = mono_now_ns() + 2 * kSecond;
    while (mono_now_ns() < give_up) {
      auto dg = client->recv();
      ASSERT_TRUE(dg.ok());
      if (dg->has_value()) {
        ++answered;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  net::IoCounters after = net::io_counters();
  EXPECT_EQ(answered, kExchanges);
  EXPECT_LE(after.recvmmsg_calls - before.recvmmsg_calls, kExchanges);
}

// ---------------------------------------------------------------------------
// Response template cache.
// ---------------------------------------------------------------------------

const IpAddr kClient{Ip4{127, 0, 0, 1}};

server::AuthServer example_server() {
  server::AuthServer s;
  auto z = zone::parse_zone(R"(
$ORIGIN example.com.
$TTL 3600
@   IN SOA ns1 admin 1 7200 900 1209600 300
    IN NS ns1
ns1 IN A  192.0.2.1
www IN A  192.0.2.80
)");
  EXPECT_TRUE(z.ok());
  EXPECT_TRUE(s.default_zones().add(std::move(*z)).ok());
  return s;
}

std::vector<uint8_t> query_wire(uint16_t id, const char* qname,
                                RRType qtype = RRType::A, bool rd = true) {
  auto name = Name::parse(qname);
  EXPECT_TRUE(name.ok());
  return Message::make_query(id, *name, qtype, rd).to_wire();
}

TEST(ResponseCacheT, HitPatchesOnlyIdAndRdBit) {
  server::AuthServer auth = example_server();
  server::ResponseCache cache(16);
  std::vector<uint8_t> reply;
  bool nx = false;

  std::vector<uint8_t> q1 = query_wire(0x1234, "www.example.com");
  ASSERT_EQ(cache.probe(q1, 512, reply, nx),
            server::ResponseCache::Outcome::Miss);
  auto slow1 = auth.answer_wire(q1, kClient, 512);
  ASSERT_TRUE(slow1.has_value());
  cache.insert(*slow1);
  EXPECT_EQ(cache.stats().insertions, 1u);

  // Same question, different ID and RD: the patched template must be
  // byte-identical to what the slow path would have produced.
  std::vector<uint8_t> q2 = query_wire(0xbeef, "www.example.com", RRType::A,
                                       /*rd=*/false);
  ASSERT_EQ(cache.probe(q2, 512, reply, nx),
            server::ResponseCache::Outcome::Hit);
  auto slow2 = auth.answer_wire(q2, kClient, 512);
  ASSERT_TRUE(slow2.has_value());
  EXPECT_EQ(reply, *slow2);
  EXPECT_FALSE(nx);
}

TEST(ResponseCacheT, QnameCaseFoldsIntoOneKey) {
  server::AuthServer auth = example_server();
  server::ResponseCache cache(16);
  std::vector<uint8_t> reply;
  bool nx = false;

  std::vector<uint8_t> lower = query_wire(1, "www.example.com");
  ASSERT_EQ(cache.probe(lower, 512, reply, nx),
            server::ResponseCache::Outcome::Miss);
  cache.insert(*auth.answer_wire(lower, kClient, 512));

  // Uppercase the qname bytes in place (labels start at offset 12).
  std::vector<uint8_t> upper = query_wire(2, "www.example.com");
  for (size_t i = 12; i < upper.size(); ++i)
    if (upper[i] >= 'a' && upper[i] <= 'z')
      upper[i] = static_cast<uint8_t>(upper[i] - 'a' + 'A');
  ASSERT_EQ(cache.probe(upper, 512, reply, nx),
            server::ResponseCache::Outcome::Hit);
  // make_response echoes the *parsed* (lowercased) question, so the
  // patched template matches the slow path for the uppercase query too.
  EXPECT_EQ(reply, *auth.answer_wire(upper, kClient, 512));
}

TEST(ResponseCacheT, DoBitAndEdnsPresenceSeparateKeys) {
  server::AuthServer auth = example_server();
  server::ResponseCache cache(16);
  std::vector<uint8_t> reply;
  bool nx = false;

  auto name = Name::parse("www.example.com");
  ASSERT_TRUE(name.ok());
  Message plain = Message::make_query(1, *name, RRType::A);
  Message edns = plain;
  edns.edns = dns::Edns{};
  Message edns_do = plain;
  edns_do.edns = dns::Edns{};
  edns_do.edns->dnssec_ok = true;

  for (const Message* q : {&plain, &edns, &edns_do}) {
    std::vector<uint8_t> wire = q->to_wire();
    ASSERT_EQ(cache.probe(wire, 512, reply, nx),
              server::ResponseCache::Outcome::Miss)
        << "EDNS/DO variants must not collide";
    cache.insert(*auth.answer_wire(wire, kClient, 512));
  }
  EXPECT_EQ(cache.size(), 3u);
  // And each one now hits its own entry, matching its own slow path.
  for (const Message* q : {&plain, &edns, &edns_do}) {
    Message probe_q = *q;
    probe_q.header.id = 0x7777;
    std::vector<uint8_t> wire = probe_q.to_wire();
    ASSERT_EQ(cache.probe(wire, 512, reply, nx),
              server::ResponseCache::Outcome::Hit);
    EXPECT_EQ(reply, *auth.answer_wire(wire, kClient, 512));
  }
}

TEST(ResponseCacheT, NxdomainFlagSurvivesTheTemplate) {
  server::AuthServer auth = example_server();
  server::ResponseCache cache(16);
  std::vector<uint8_t> reply;
  bool nx = false;

  std::vector<uint8_t> q = query_wire(9, "missing.example.com");
  ASSERT_EQ(cache.probe(q, 512, reply, nx),
            server::ResponseCache::Outcome::Miss);
  cache.insert(*auth.answer_wire(q, kClient, 512));
  std::vector<uint8_t> q2 = query_wire(10, "missing.example.com");
  ASSERT_EQ(cache.probe(q2, 512, reply, nx),
            server::ResponseCache::Outcome::Hit);
  EXPECT_TRUE(nx);
}

TEST(ResponseCacheT, RevisionChangeDropsEverything) {
  server::AuthServer auth = example_server();
  server::ResponseCache cache(16);
  std::vector<uint8_t> reply;
  bool nx = false;

  cache.sync_revision(auth.revision());
  std::vector<uint8_t> q = query_wire(1, "www.example.com");
  ASSERT_EQ(cache.probe(q, 512, reply, nx),
            server::ResponseCache::Outcome::Miss);
  cache.insert(*auth.answer_wire(q, kClient, 512));
  ASSERT_EQ(cache.size(), 1u);

  // Zone data moved: stale templates must not survive.
  auto z = zone::parse_zone(R"(
$ORIGIN other.test.
$TTL 3600
@ IN SOA ns1 admin 1 7200 900 1209600 300
@ IN NS ns1
ns1 IN A 192.0.2.9
)");
  ASSERT_TRUE(z.ok());
  ASSERT_TRUE(auth.default_zones().add(std::move(*z)).ok());
  cache.sync_revision(auth.revision());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.probe(q, 512, reply, nx),
            server::ResponseCache::Outcome::Miss);
}

TEST(ResponseCacheT, UncacheableShapesBypass) {
  server::ResponseCache cache(16);
  std::vector<uint8_t> reply;
  bool nx = false;

  // Header only, qdcount == 0.
  std::vector<uint8_t> empty(12, 0);
  EXPECT_EQ(cache.probe(empty, 512, reply, nx),
            server::ResponseCache::Outcome::Bypass);

  // A response (QR set) is not a query.
  std::vector<uint8_t> resp = query_wire(1, "www.example.com");
  resp[2] |= 0x80;
  EXPECT_EQ(cache.probe(resp, 512, reply, nx),
            server::ResponseCache::Outcome::Bypass);

  // EDNS options (cookies etc.) vary per client: never cached.
  auto name = Name::parse("www.example.com");
  ASSERT_TRUE(name.ok());
  Message q = Message::make_query(1, *name, RRType::A);
  q.edns = dns::Edns{};
  q.edns->options = {0x00, 0x0a, 0x00, 0x02, 0xaa, 0xbb};  // COOKIE-ish
  EXPECT_EQ(cache.probe(q.to_wire(), 512, reply, nx),
            server::ResponseCache::Outcome::Bypass);

  // Disabled cache bypasses everything.
  server::ResponseCache off(0);
  std::vector<uint8_t> plain = query_wire(1, "www.example.com");
  EXPECT_EQ(off.probe(plain, 512, reply, nx),
            server::ResponseCache::Outcome::Bypass);
}

TEST(ResponseCacheT, InsertRejectsHeaderOnlySalvageReplies) {
  server::ResponseCache cache(16);
  std::vector<uint8_t> reply;
  bool nx = false;
  std::vector<uint8_t> q = query_wire(1, "www.example.com");
  ASSERT_EQ(cache.probe(q, 512, reply, nx),
            server::ResponseCache::Outcome::Miss);
  // A header-only FORMERR salvage does not echo the question; the per-hit
  // patch could not reproduce it, so it must not enter the cache.
  std::vector<uint8_t> formerr(12, 0);
  formerr[2] = 0x80;  // QR
  formerr[3] = 0x01;  // FORMERR
  cache.insert(formerr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResponseCacheT, LruBoundsTheStore) {
  server::AuthServer auth = example_server();
  server::ResponseCache cache(2);
  std::vector<uint8_t> reply;
  bool nx = false;

  const char* names[] = {"a.example.com", "b.example.com", "c.example.com"};
  for (const char* n : names) {
    std::vector<uint8_t> q = query_wire(1, n);
    ASSERT_EQ(cache.probe(q, 512, reply, nx),
              server::ResponseCache::Outcome::Miss);
    cache.insert(*auth.answer_wire(q, kClient, 512));
  }
  EXPECT_EQ(cache.size(), 2u);
  // The oldest entry was evicted; the newest survives.
  std::vector<uint8_t> qa = query_wire(2, "a.example.com");
  EXPECT_EQ(cache.probe(qa, 512, reply, nx),
            server::ResponseCache::Outcome::Miss);
  std::vector<uint8_t> qc = query_wire(2, "c.example.com");
  EXPECT_EQ(cache.probe(qc, 512, reply, nx),
            server::ResponseCache::Outcome::Hit);
}

// ---------------------------------------------------------------------------
// Frontend integration: the batched UDP reply path serves cached templates
// byte-identically and keeps the cache stats / server stats honest.
// ---------------------------------------------------------------------------

struct Harness {
  server::AuthServer auth = example_server();
  net::EventLoop loop;
  std::unique_ptr<server::ServerFrontend> fe;

  explicit Harness(server::FrontendConfig cfg = {}) {
    auto started = server::ServerFrontend::start(loop, auth, cfg);
    EXPECT_TRUE(started.ok()) << (started.ok() ? "" : started.error().message);
    fe = std::move(*started);
  }

  template <typename F>
  bool pump_until(F cond, TimeNs budget = 3 * kSecond) {
    TimeNs start = mono_now_ns();
    while (!cond()) {
      loop.poll_once(2 * kMilli);
      if (mono_now_ns() - start > budget) return false;
    }
    return true;
  }
};

std::optional<std::vector<uint8_t>> udp_ask(Harness& h, net::UdpSocket& sock,
                                            std::span<const uint8_t> query) {
  // UDP is lossy even on loopback under buffer pressure: resend every
  // ~300ms within the budget rather than flaking on one eaten datagram.
  auto sent = sock.send_to(h.fe->endpoint(), query);
  EXPECT_TRUE(sent.ok() && *sent);
  std::optional<std::vector<uint8_t>> reply;
  TimeNs last_send = mono_now_ns();
  h.pump_until([&] {
    if (mono_now_ns() - last_send > 300 * kMilli) {
      (void)sock.send_to(h.fe->endpoint(), query);
      last_send = mono_now_ns();
    }
    auto dg = sock.recv();
    if (!dg.ok() || !dg->has_value()) return false;
    reply.emplace(std::move((**dg).payload));
    return true;
  });
  return reply;
}

TEST(FrontendCacheT, CachedRepliesAreByteIdenticalModuloId) {
  Harness h;
  ASSERT_NE(h.fe->response_cache(), nullptr);
  auto client = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(client.ok());

  std::vector<uint8_t> q1 = query_wire(0x1111, "www.example.com");
  std::vector<uint8_t> q2 = query_wire(0x2222, "www.example.com");
  auto r1 = udp_ask(h, *client, q1);
  auto r2 = udp_ask(h, *client, q2);
  ASSERT_TRUE(r1.has_value() && r2.has_value());
  EXPECT_GE(h.fe->response_cache()->stats().hits, 1u);

  // Patch the first reply's ID to the second query's: bytes must agree.
  std::vector<uint8_t> expected = *r1;
  ASSERT_GE(expected.size(), 2u);
  expected[0] = 0x22;
  expected[1] = 0x22;
  EXPECT_EQ(*r2, expected);
  // The cached reply was counted like a served query (>= because the
  // helper may resend under loopback buffer pressure).
  EXPECT_GE(h.auth.stats().queries.load(), 2u);
  EXPECT_EQ(h.auth.stats().queries.load(), h.auth.stats().responses.load());
}

TEST(FrontendCacheT, ZoneChangeInvalidatesLiveCache) {
  Harness h;
  auto client = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(client.ok());

  auto r1 = udp_ask(h, *client, query_wire(1, "www.example.com"));
  auto r2 = udp_ask(h, *client, query_wire(2, "www.example.com"));
  ASSERT_TRUE(r1.has_value() && r2.has_value());
  ASSERT_GE(h.fe->response_cache()->stats().hits, 1u);

  auto z = zone::parse_zone(R"(
$ORIGIN added.test.
$TTL 3600
@ IN SOA ns1 admin 1 7200 900 1209600 300
@ IN NS ns1
ns1 IN A 192.0.2.7
)");
  ASSERT_TRUE(z.ok());
  ASSERT_TRUE(h.auth.default_zones().add(std::move(*z)).ok());

  auto r3 = udp_ask(h, *client, query_wire(3, "www.example.com"));
  ASSERT_TRUE(r3.has_value());
  EXPECT_GE(h.fe->response_cache()->stats().invalidations, 1u);
}

TEST(FrontendCacheT, RotateAnswersServersBypassTheCache) {
  server::FrontendConfig cfg;
  Harness h(cfg);
  h.auth.config().rotate_answers = true;
  auto client = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(client.ok());
  auto r1 = udp_ask(h, *client, query_wire(1, "www.example.com"));
  auto r2 = udp_ask(h, *client, query_wire(2, "www.example.com"));
  ASSERT_TRUE(r1.has_value() && r2.has_value());
  EXPECT_EQ(h.fe->response_cache()->stats().hits, 0u);
}

// ---------------------------------------------------------------------------
// In-place name decoding.
// ---------------------------------------------------------------------------

TEST(NameDecodeT, MatchesFromWireAcrossCompressionPointers) {
  // Offset 0: "EXAMPLE.com" (uppercase exercises the lowercasing sink);
  // offset 13: "www" + pointer back to 0.
  std::vector<uint8_t> buf;
  buf.push_back(7);
  for (char c : std::string("EXAMPLE")) buf.push_back(static_cast<uint8_t>(c));
  buf.push_back(3);
  for (char c : std::string("com")) buf.push_back(static_cast<uint8_t>(c));
  buf.push_back(0);
  size_t second = buf.size();
  buf.push_back(3);
  for (char c : std::string("www")) buf.push_back(static_cast<uint8_t>(c));
  buf.push_back(0xc0);
  buf.push_back(0x00);

  ByteReader rd1(buf);
  ASSERT_TRUE(rd1.seek(second).ok());
  std::string wire;
  ASSERT_TRUE(dns::decode_name_wire(rd1, wire).ok());

  ByteReader rd2(buf);
  ASSERT_TRUE(rd2.seek(second).ok());
  auto name = Name::from_wire(rd2);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->to_string(), "www.example.com.");
  ByteWriter w;
  name->to_wire(w);
  std::vector<uint8_t> via_name = std::move(w).take();
  EXPECT_EQ(std::vector<uint8_t>(wire.begin(), wire.end()), via_name);
  // Both readers end at the same position (after the pointer).
  EXPECT_EQ(rd1.pos(), rd2.pos());
}

TEST(NameDecodeT, RejectsHostileInputLikeFromWire) {
  // Forward pointer (only strictly-backward targets are legal).
  std::vector<uint8_t> forward{0xc0, 0x02, 0x00};
  // Truncated: label length runs past the buffer.
  std::vector<uint8_t> truncated{0x05, 'a', 'b'};
  for (const auto& buf : {forward, truncated}) {
    ByteReader rd1(buf);
    std::string out;
    EXPECT_FALSE(dns::decode_name_wire(rd1, out).ok());
    EXPECT_TRUE(out.empty());  // failed decode leaves no partial bytes
    ByteReader rd2(buf);
    EXPECT_FALSE(Name::from_wire(rd2).ok());
  }
}

TEST(NameDecodeT, AppendsAfterExistingBytesAndRestoresOnError) {
  std::vector<uint8_t> good;
  good.push_back(1);
  good.push_back('x');
  good.push_back(0);
  ByteReader rd(good);
  std::string out = "prefix";
  ASSERT_TRUE(dns::decode_name_wire(rd, out).ok());
  EXPECT_EQ(out.substr(0, 6), "prefix");
  EXPECT_EQ(out.substr(6), std::string("\x01x\x00", 3));

  std::vector<uint8_t> bad{0x05, 'a'};
  ByteReader rd2(bad);
  std::string out2 = "keep";
  EXPECT_FALSE(dns::decode_name_wire(rd2, out2).ok());
  EXPECT_EQ(out2, "keep");
}

}  // namespace
}  // namespace ldp

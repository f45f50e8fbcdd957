// Sharding regression suite (`ctest -L shard` / check_shard): the
// ShardedMetaServer add_zone rollback fix, SO_REUSEPORT group binding,
// multi-shard ShardedServer serving with merge-after-join books, and the
// sharded querier pool — including the N=1 vs N=4 equivalence runs that
// pin the tentpole claim: partitioning changes wall-clock parallelism,
// never counters. Also the suite the tsan-shard preset runs under
// ThreadSanitizer, so every cross-thread handoff in the shard layer gets
// exercised under the race detector.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include "dns/message.hpp"
#include "replay/checkpoint.hpp"
#include "replay/engine.hpp"
#include "server/background.hpp"
#include "server/shard.hpp"
#include "server/sharded_frontend.hpp"
#include "synth/generator.hpp"
#include "zone/parser.hpp"

namespace ldp {
namespace {

using dns::Message;
using dns::Name;
using dns::Rcode;
using dns::RRType;
using trace::TraceRecord;

zone::Zone parsed_zone(const std::string& origin) {
  auto z = zone::parse_zone(
      "$ORIGIN " + origin + "\n$TTL 3600\n"
      "@ IN SOA ns1 admin 1 7200 900 1209600 300\n"
      "@ IN NS ns1\nns1 IN A 192.0.2.1\nwww IN A 192.0.2.80\n");
  EXPECT_TRUE(z.ok()) << (z.ok() ? "" : z.error().message);
  return std::move(*z);
}

Message query_for(const std::string& qname, uint16_t id = 1) {
  return Message::make_query(id, *Name::parse(qname), RRType::A);
}

IpAddr addr_of(uint8_t last) { return IpAddr{Ip4{192, 0, 2, last}}; }

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

// --- satellite 1: add_zone atomicity --------------------------------------

// The headline bugfix: a failed add_zone must leave no trace. Before the
// fix, routes and match-clients entries for the new addresses were
// installed before the fallible zones.add, so a duplicate-origin conflict
// left a stale route (route() hit, answer() REFUSED — state corruption the
// next add then built on).
TEST(ShardedMetaRollback, FailedAddLeavesNoStaleState) {
  server::ShardedMetaServer meta(2);
  ASSERT_TRUE(meta.add_zone(parsed_zone("example.com."), {addr_of(1)}).ok());
  auto loads_before = meta.zones_per_shard();

  // Same origin on the same nameserver identity, bringing one new address:
  // the identity's view already hosts example.com. -> must fail whole.
  auto conflict = meta.add_zone(parsed_zone("example.com."),
                                {addr_of(1), addr_of(2)});
  ASSERT_FALSE(conflict.ok());

  // No stale route for the new address, no load-count drift...
  EXPECT_FALSE(meta.route(addr_of(2)).has_value());
  EXPECT_EQ(meta.zones_per_shard(), loads_before);
  // ...the original zone still answers via its route, and the would-be new
  // address behaves like any unrouted client.
  EXPECT_EQ(meta.answer(query_for("www.example.com"), addr_of(1)).header.rcode,
            Rcode::NoError);
  EXPECT_EQ(meta.answer(query_for("www.example.com"), addr_of(2)).header.rcode,
            Rcode::Refused);
}

// A failed add with an entirely fresh identity must also remove the view it
// created for the attempt (visible indirectly: the same identity can be
// added again and lands cleanly).
TEST(ShardedMetaRollback, FreshViewRemovedOnFailure) {
  server::ShardedMetaServer meta(1);
  ASSERT_TRUE(meta.add_zone(parsed_zone("example.com."), {addr_of(1)}).ok());
  // Joining the identity with a duplicate origin fails...
  ASSERT_FALSE(meta.add_zone(parsed_zone("example.com."), {addr_of(1)}).ok());
  // ...and the books are clean enough that a real second zone still joins
  // the identity and answers.
  ASSERT_TRUE(meta.add_zone(parsed_zone("shop.example."), {addr_of(1)}).ok());
  EXPECT_EQ(meta.answer(query_for("www.shop.example"), addr_of(1)).header.rcode,
            Rcode::NoError);
}

// The view-reuse half of the fix: a second zone of the same nameserver
// identity joins the existing view, so first-match-wins selection reaches
// it (a fresh view with identical match-clients would be shadowed forever).
TEST(ShardedMetaRollback, SecondZoneOfIdentityStaysReachable) {
  server::ShardedMetaServer meta(3);
  auto s1 = meta.add_zone(parsed_zone("example.com."), {addr_of(1)});
  ASSERT_TRUE(s1.ok());
  auto s2 = meta.add_zone(parsed_zone("example.net."), {addr_of(1)});
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s1, *s2);  // one identity, one shard
  EXPECT_EQ(meta.answer(query_for("www.example.com"), addr_of(1)).header.rcode,
            Rcode::NoError);
  EXPECT_EQ(meta.answer(query_for("www.example.net"), addr_of(1)).header.rcode,
            Rcode::NoError);
}

// Addresses bridging two distinct views on one shard would need a view
// merge; add_zone refuses with no mutation instead.
TEST(ShardedMetaRollback, ViewStraddleRejectedAtomically) {
  server::ShardedMetaServer meta(1);
  ASSERT_TRUE(meta.add_zone(parsed_zone("example.com."), {addr_of(1)}).ok());
  ASSERT_TRUE(meta.add_zone(parsed_zone("example.net."), {addr_of(2)}).ok());
  auto loads_before = meta.zones_per_shard();

  auto bridged = meta.add_zone(parsed_zone("example.org."),
                               {addr_of(1), addr_of(2), addr_of(3)});
  ASSERT_FALSE(bridged.ok());
  EXPECT_NE(bridged.error().message.find("straddle views"), std::string::npos);
  EXPECT_FALSE(meta.route(addr_of(3)).has_value());
  EXPECT_EQ(meta.zones_per_shard(), loads_before);
  EXPECT_EQ(meta.answer(query_for("www.example.com"), addr_of(1)).header.rcode,
            Rcode::NoError);
  EXPECT_EQ(meta.answer(query_for("www.example.net"), addr_of(2)).header.rcode,
            Rcode::NoError);
}

// --- SO_REUSEPORT group binding -------------------------------------------

TEST(ReusePort, UdpGroupSharesPortAndOutsidersAreRejected) {
  Endpoint any{IpAddr{Ip4{127, 0, 0, 1}}, 0};
  auto first = net::UdpSocket::bind(any, /*reuse_port=*/true);
  ASSERT_TRUE(first.ok()) << first.error().message;
  auto bound = first->local_endpoint();
  ASSERT_TRUE(bound.ok());
  Endpoint port = *bound;

  auto member = net::UdpSocket::bind(port, /*reuse_port=*/true);
  EXPECT_TRUE(member.ok()) << (member.ok() ? "" : member.error().message);
  // A socket with no reuse options at all is an ordinary conflict. (Our own
  // bind() can't show this — it always sets SO_REUSEADDR, which Linux lets
  // duplicate-bind UDP ports with — so go to the raw syscall.)
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sin.sin_port = htons(port.port);
  EXPECT_NE(::bind(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)), 0);
  ::close(fd);
}

TEST(ReusePort, TcpGroupSharesPortAndOutsidersAreRejected) {
  Endpoint any{IpAddr{Ip4{127, 0, 0, 1}}, 0};
  auto first = net::TcpListener::listen(any, 16, /*reuse_port=*/true);
  ASSERT_TRUE(first.ok()) << first.error().message;
  auto bound = first->local_endpoint();
  ASSERT_TRUE(bound.ok());
  Endpoint port = *bound;

  auto member = net::TcpListener::listen(port, 16, /*reuse_port=*/true);
  EXPECT_TRUE(member.ok()) << (member.ok() ? "" : member.error().message);
  EXPECT_FALSE(net::TcpListener::listen(port, 16).ok());
}

// --- ShardedServer serving + merge-after-join -----------------------------

// Four shards, sharded querier pool to match: every query answered, the
// auth stats see the full workload, and the merged exit report carries one
// consistent book per shard plus a consistent merged book.
TEST(ShardedServing, FourShardRoundTripMergesConsistentBooks) {
  auto srv = server::ShardedServer::start(wildcard_server(), {}, 4);
  ASSERT_TRUE(srv.ok()) << srv.error().message;
  EXPECT_EQ((*srv)->shard_count(), 4u);

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = kMilli / 4;
  spec.duration_ns = 300 * spec.interarrival_ns;
  spec.client_count = 8;
  auto trace = synth::make_fixed_trace(spec);

  replay::EngineConfig cfg;
  cfg.server = (*srv)->endpoint();
  cfg.timed = false;
  cfg.shards = 4;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.max_retries = 0;
  cfg.drain_grace = 3 * kSecond;
  auto report = replay::QueryEngine(cfg).replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report->queries_sent, trace.size());
  EXPECT_EQ(report->responses_received, trace.size());

  const server::ShardedExitReport& exit_report = (*srv)->stop();
  EXPECT_EQ((*srv)->auth().stats().queries.load(), trace.size());
  ASSERT_EQ(exit_report.per_shard.size(), 4u);
  uint64_t shard_io_datagrams = 0;
  for (const auto& shard : exit_report.per_shard) {
    EXPECT_TRUE(shard.connections.consistent()) << shard.connections.summary();
    shard_io_datagrams += shard.io.datagrams_received;
  }
  EXPECT_TRUE(exit_report.connections.consistent());
  // Per-thread syscall tallies sum to the merged tally, and every query
  // datagram the engine sent was received on some shard's own loop thread.
  EXPECT_EQ(exit_report.io.datagrams_received, shard_io_datagrams);
  EXPECT_EQ(shard_io_datagrams, trace.size());
}

// --- the tentpole equivalence: N=1 vs N=4 under seeded slowloris ----------

struct SlowlorisOutcome {
  uint64_t queries_sent = 0;
  uint64_t responses = 0;
  uint64_t expired = 0;
  uint64_t server_answered = 0;
  uint64_t accepted = 0;
  uint64_t deadline_closed = 0;
  uint64_t closed_total = 0;
  uint64_t established = 0;
  bool merged_consistent = false;
  bool shards_consistent = false;
  bool operator==(const SlowlorisOutcome&) const = default;
};

// Mixed healthy/hostile workload whose composition is a pure function of
// the seed: sources the seed marks "slow" replay over TCP with the
// engine's slowloris drip (slow_client:1 — the per-connection draw is
// keyed by per-querier open order, which is partition-DEpendent, so the
// seeded choice lives in the trace where it is partition-independent);
// the rest are healthy UDP. The hardened server's read deadline reaps
// every dribbler, answering everyone else.
SlowlorisOutcome run_slowloris(size_t shards, size_t* slow_out) {
  constexpr size_t kSources = 9;
  constexpr size_t kQueriesPerSource = 4;
  fault::FaultSpec mix;
  mix.seed = 42;
  mix.slow_client = 0.4;

  std::vector<TraceRecord> trace;
  size_t slow = 0;
  auto payload = query_for("www.example.com").to_wire();
  for (size_t q = 0; q < kQueriesPerSource; ++q) {
    for (size_t s = 0; s < kSources; ++s) {
      bool is_slow = mix.is_slow_client(s);
      if (q == 0 && is_slow) ++slow;
      TraceRecord rec;
      rec.timestamp = static_cast<TimeNs>(q * kSources + s) * (kMilli / 4);
      rec.src = Endpoint{IpAddr{Ip4{10, 0, 0, static_cast<uint8_t>(1 + s)}}, 40000};
      rec.dst = Endpoint{IpAddr{}, 53};
      rec.transport = is_slow ? Transport::Tcp : Transport::Udp;
      rec.direction = trace::Direction::Query;
      rec.dns_payload = payload;
      trace.push_back(std::move(rec));
    }
  }
  if (slow_out != nullptr) *slow_out = slow;

  server::FrontendConfig fe;
  fe.limits.read_deadline = 150 * kMilli;
  fe.sweep_interval = 25 * kMilli;
  auto srv = server::ShardedServer::start(wildcard_server(), fe, shards);
  EXPECT_TRUE(srv.ok());

  replay::EngineConfig cfg;
  cfg.server = (*srv)->endpoint();
  cfg.timed = false;
  cfg.shards = shards;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.max_retries = 0;       // retransmits would perturb the books
  cfg.tcp_reconnect = false; // a second slow connection proves nothing new
  cfg.query_timeout = 600 * kMilli;  // slow queries age out after the reap
  cfg.drain_grace = 2 * kSecond;
  cfg.fault = fault::FaultSpec{};
  cfg.fault->seed = 42;
  cfg.fault->slow_client = 1;  // every TCP source in this trace dribbles
  cfg.fault->slow_drip = 25 * kMilli;
  auto report = replay::QueryEngine(cfg).replay(trace);
  EXPECT_TRUE(report.ok());

  SlowlorisOutcome out;
  out.queries_sent = report->queries_sent;
  out.responses = report->responses_received;
  out.expired = report->lifecycle.expired;

  const server::ShardedExitReport& exit_report = (*srv)->stop();
  out.server_answered = (*srv)->auth().stats().queries.load();
  out.accepted = exit_report.connections.accepted;
  out.deadline_closed = exit_report.connections.deadline_closed;
  out.closed_total = exit_report.connections.closed_total();
  out.established = exit_report.connections.established;
  out.merged_consistent = exit_report.connections.consistent();
  out.shards_consistent = true;
  for (const auto& shard : exit_report.per_shard)
    out.shards_consistent &= shard.connections.consistent();
  return out;
}

TEST(ShardedServing, SlowlorisBooksIdenticalAtOneAndFourShards) {
  size_t slow1 = 0, slow4 = 0;
  SlowlorisOutcome one = run_slowloris(1, &slow1);
  SlowlorisOutcome four = run_slowloris(4, &slow4);
  ASSERT_EQ(slow1, slow4);
  ASSERT_GT(slow1, 0u);          // the seed must actually pick dribblers
  ASSERT_LT(slow1, 9u);          // ...and leave healthy sources

  // Absolute expectations first, so a failure names the broken half.
  const uint64_t healthy_queries = (9 - slow1) * 4;
  for (const SlowlorisOutcome* o : {&one, &four}) {
    EXPECT_EQ(o->queries_sent, 36u);
    EXPECT_EQ(o->responses, healthy_queries);      // every UDP query answered
    EXPECT_EQ(o->expired, slow1 * 4);              // every dripped query lost
    EXPECT_EQ(o->server_answered, healthy_queries);
    EXPECT_EQ(o->accepted, slow1);                 // one TCP conn per dribbler
    EXPECT_EQ(o->deadline_closed, slow1);          // all reaped by the deadline
    EXPECT_EQ(o->closed_total, slow1);
    EXPECT_EQ(o->established, 0u);
    EXPECT_TRUE(o->merged_consistent);
    EXPECT_TRUE(o->shards_consistent);
  }
  // The tentpole claim: partitioning is invisible in the books.
  EXPECT_EQ(one, four);
}

// --- sharded querier pool determinism -------------------------------------

// Fault draws are keyed by (seed, source) streams, so fixed-seed impairment
// counters must be byte-identical however sources are partitioned.
TEST(ShardedReplay, FixedSeedImpairmentsIdenticalAcrossShardCounts) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = kMilli / 4;
  spec.duration_ns = 240 * spec.interarrival_ns;
  spec.client_count = 8;
  auto trace = synth::make_fixed_trace(spec);

  auto run = [&](size_t shards) {
    replay::EngineConfig cfg;
    cfg.server = (*bg)->endpoint();
    cfg.timed = false;
    cfg.shards = shards;
    cfg.distributors = 1;
    cfg.queriers_per_distributor = 1;
    cfg.max_retries = 0;  // retransmits would consume extra fault draws
    cfg.drain_grace = 2 * kSecond;
    cfg.fault = *fault::parse_fault_spec("dup:0.05,seed:42");
    auto report = replay::QueryEngine(cfg).replay(trace);
    EXPECT_TRUE(report.ok());
    return std::move(*report);
  };

  auto one = run(1);
  auto four = run(4);
  EXPECT_EQ(one.queries_sent, trace.size());
  EXPECT_EQ(four.queries_sent, trace.size());
  EXPECT_EQ(one.impairments, four.impairments);
  EXPECT_GT(one.impairments.duplicated, 0u);
  EXPECT_EQ(one.responses_received, trace.size());
  EXPECT_EQ(four.responses_received, trace.size());
}

size_t thread_count() {
  auto it = std::filesystem::directory_iterator("/proc/self/task");
  return static_cast<size_t>(std::distance(it, {}));
}

// The thread budget: one controller (the calling thread) feeds every
// querier, so a supervised replay adds shards × distributors × queriers
// querier threads and one supervisor — no per-shard controller, supervisor
// or distributor threads.
TEST(ShardedReplay, ThreadBudgetIsQueriersPlusOneSupervisor) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = kMilli;
  spec.duration_ns = 300 * kMilli;
  spec.client_count = 8;
  auto trace = synth::make_fixed_trace(spec);

  replay::EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.shards = 2;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 2;
  cfg.supervise = true;

  // The sampler counts itself in the baseline, so `peak - baseline` is
  // exactly what the replay added.
  std::atomic<size_t> baseline{0};
  std::atomic<size_t> peak{0};
  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    baseline = thread_count();
    while (!stop) {
      peak = std::max(peak.load(), thread_count());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (baseline == 0) std::this_thread::yield();
  auto report = replay::QueryEngine(cfg).replay(trace);
  stop = true;
  sampler.join();
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report->queries_sent, trace.size());

  size_t added = peak - baseline;
  EXPECT_LE(added, 4u + 1u) << "4 queriers + 1 supervisor allowed";
  EXPECT_GE(added, 4u) << "the sampler missed the queriers";
}

// Live mutation happens once, on the controller thread, before the
// partition — stateful user closures never see concurrent calls, and the
// mutated stream is what gets partitioned.
TEST(ShardedReplay, LiveMutatorAppliedOnceBeforePartition) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = kMilli / 4;
  spec.duration_ns = 120 * spec.interarrival_ns;
  spec.client_count = 6;
  auto trace = synth::make_fixed_trace(spec);

  mutate::MutatorPipeline pipeline;
  pipeline.prefix_qnames("shardcheck");
  replay::EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.timed = false;
  cfg.shards = 3;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.max_retries = 0;
  cfg.drain_grace = 2 * kSecond;
  cfg.live_mutator = &pipeline;
  auto report = replay::QueryEngine(cfg).replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report->queries_sent, trace.size());
  EXPECT_EQ(report->responses_received, trace.size());  // wildcard matches prefix
  EXPECT_EQ(report->mutator_dropped, 0u);
}

// Sharded checkpointing now writes per-shard files (<path>.shardN), so a
// file checkpoint path is fine. What stays an explicit error: feeding a
// single whole-trace resume state to a sharded run (it takes resume_shards)
// and the in-memory checkpoint_sink (a per-shard sink would interleave
// unrelated slices). dist_test.cpp covers the working per-shard round trip.
TEST(ShardedReplay, ShardedCheckpointingInvalidCombinationsStayErrors) {
  std::vector<TraceRecord> trace;
  TraceRecord rec;
  rec.timestamp = 0;
  rec.src = Endpoint{IpAddr{Ip4{10, 0, 0, 1}}, 40000};
  rec.dst = Endpoint{IpAddr{}, 53};
  rec.transport = Transport::Udp;
  rec.direction = trace::Direction::Query;
  rec.dns_payload = query_for("www.example.com").to_wire();
  trace.push_back(rec);

  replay::EngineConfig cfg;
  cfg.server = Endpoint{IpAddr{Ip4{127, 0, 0, 1}}, 1};
  cfg.shards = 2;

  replay::CheckpointState single;
  single.trace_hash = 1;
  cfg.resume = &single;
  auto report = replay::QueryEngine(cfg).replay(trace);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error().message.find("resume_shards"), std::string::npos);
  cfg.resume = nullptr;

  cfg.checkpoint_sink = [](const replay::CheckpointState&) {};
  report = replay::QueryEngine(cfg).replay(trace);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error().message.find("checkpoint_sink"), std::string::npos);
}

}  // namespace
}  // namespace ldp

// Fault-scenario regression suite: fixed-seed impairment scenarios driven
// end-to-end through the real-socket replay engine (UDP and TCP, one shard
// and four), the proxy pipeline, the ShardedMetaServer
// routing path, and the simnet discrete-event runtime — asserting exact,
// reproducible impairment and lifecycle counter outcomes.
//
// The exactness technique: FaultStream verdicts depend only on
// (seed, stream name, packet index) plus packet time for window
// impairments. For loss/dup/corrupt scenarios a reference stream driven
// the same number of times must therefore produce byte-identical counters
// to the one embedded in the engine — no tolerance bands needed.
#include <gtest/gtest.h>

#include <map>

#include "fault/fault.hpp"
#include "proxy/pipeline.hpp"
#include "replay/engine.hpp"
#include "server/background.hpp"
#include "server/shard.hpp"
#include "simnet/replay_sim.hpp"
#include "synth/generator.hpp"
#include "zone/parser.hpp"

namespace ldp {
namespace {

using trace::TraceRecord;

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

fault::FaultSpec spec_of(const char* text) {
  auto spec = fault::parse_fault_spec(text);
  EXPECT_TRUE(spec.ok()) << spec.error().message;
  return *spec;
}

std::vector<TraceRecord> fixed_trace(size_t queries, size_t clients,
                                     Transport transport = Transport::Udp) {
  synth::FixedTraceSpec spec;
  spec.interarrival_ns = kMilli / 2;
  spec.duration_ns = static_cast<TimeNs>(queries) * spec.interarrival_ns;
  spec.client_count = clients;
  spec.transport = transport;
  return synth::make_fixed_trace(spec);
}

/// What the engine's per-source streams must report for a timing-free
/// scenario (loss/dup/corrupt only): drive a reference stream per source
/// for exactly the number of sends that source performs.
fault::ImpairmentCounters reference_counters(const fault::FaultSpec& spec,
                                             const std::vector<TraceRecord>& trace,
                                             const char* prefix) {
  std::map<std::string, size_t> sends_per_stream;
  for (const auto& rec : trace)
    ++sends_per_stream[std::string(prefix) + rec.src.addr.to_string()];
  fault::ImpairmentCounters total;
  for (const auto& [name, n] : sends_per_stream) {
    fault::FaultStream ref(spec, name);
    for (size_t i = 0; i < n; ++i) (void)ref.next(static_cast<TimeNs>(i));
    total.merge(ref.counters());
  }
  return total;
}

void expect_lifecycle_eq(const metrics::LifecycleCounters& a,
                         const metrics::LifecycleCounters& b) {
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.expired, b.expired);
  EXPECT_EQ(a.duplicate_ids, b.duplicate_ids);
  EXPECT_EQ(a.tcp_reconnects, b.tcp_reconnects);
  EXPECT_EQ(a.answered_after_retry, b.answered_after_retry);
  EXPECT_EQ(a.unmatched_responses, b.unmatched_responses);
  EXPECT_EQ(a.socket_errors, b.socket_errors);
}

// ---------------------------------------------------------------------------
// UDP path: exact counter outcomes for a fixed seed.
// ---------------------------------------------------------------------------

// Loss-only, no retries: every impairment drop is exactly one timeout and
// one expired query, and the counts equal the reference stream's.
TEST(FaultScenarios, UdpLossExactCounters) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());
  auto trace = fixed_trace(200, 8);
  fault::FaultSpec spec = spec_of("loss:0.25,seed:42");

  replay::EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.timed = false;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.max_retries = 0;
  cfg.query_timeout = 300 * kMilli;
  cfg.drain_grace = 5 * kSecond;
  cfg.fault = spec;
  replay::QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  fault::ImpairmentCounters expected = reference_counters(spec, trace, "udp:");
  EXPECT_GT(expected.dropped, 0u);
  EXPECT_EQ(report->impairments, expected);
  EXPECT_EQ(report->queries_sent, trace.size());
  EXPECT_EQ(report->lifecycle.timeouts, expected.dropped);
  EXPECT_EQ(report->lifecycle.expired, expected.dropped);
  EXPECT_EQ(report->lifecycle.retries, 0u);
  EXPECT_EQ(report->responses_received, trace.size() - expected.dropped);
}

// The acceptance criterion: one fixed-seed scenario replayed twice through
// real sockets, and once (twice, in fact) under simnet, yields
// byte-identical impairment accounting — and the two socket runs agree on
// every lifecycle counter.
TEST(FaultScenarios, FixedSeedScenarioByteIdenticalAcrossRunsAndRuntimes) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());
  auto trace = fixed_trace(200, 8);
  fault::FaultSpec spec = spec_of("loss:0.1,dup:0.05,corrupt:0.05,seed:7");

  replay::EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.timed = false;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.max_retries = 0;  // one draw per query: index-exact determinism
  cfg.query_timeout = 300 * kMilli;
  cfg.drain_grace = 5 * kSecond;
  cfg.fault = spec;

  replay::QueryEngine first(cfg);
  auto run1 = first.replay(trace);
  ASSERT_TRUE(run1.ok()) << run1.error().message;
  replay::QueryEngine second(cfg);
  auto run2 = second.replay(trace);
  ASSERT_TRUE(run2.ok()) << run2.error().message;

  EXPECT_EQ(run1->impairments, run2->impairments);
  expect_lifecycle_eq(run1->lifecycle, run2->lifecycle);
  EXPECT_EQ(run1->queries_sent, run2->queries_sent);
  EXPECT_EQ(run1->responses_received, run2->responses_received);

  // Same scenario under simnet: the virtual-time runtime draws the same
  // per-source streams in the same order, so the impairment accounting is
  // identical to the socket runs' — and trivially identical to itself.
  auto server = wildcard_server();
  simnet::SimReplayConfig sim_cfg;
  sim_cfg.fault = &spec;
  auto sim1 = simnet::simulate_replay(trace, server, sim_cfg);
  auto sim2 = simnet::simulate_replay(trace, server, sim_cfg);
  EXPECT_EQ(sim1.impairments, sim2.impairments);
  EXPECT_EQ(sim1.queries_lost, sim2.queries_lost);
  EXPECT_EQ(sim1.responses, sim2.responses);
  EXPECT_EQ(sim1.impairments, run1->impairments);
  EXPECT_EQ(sim1.queries_lost, run1->impairments.lost());

  // And against the closed-form reference.
  EXPECT_EQ(run1->impairments, reference_counters(spec, trace, "udp:"));
}

// ---------------------------------------------------------------------------
// TCP path: drops surface as timeouts + retries; flaps as reconnects.
// ---------------------------------------------------------------------------

TEST(FaultScenarios, TcpLossConservationAndRecovery) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());
  auto trace = fixed_trace(60, 4, Transport::Tcp);
  fault::FaultSpec spec = spec_of("loss:0.3,seed:7");

  replay::EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.timed = false;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.max_retries = 4;
  cfg.query_timeout = 200 * kMilli;
  cfg.retry_backoff_cap = 400 * kMilli;
  cfg.drain_grace = 10 * kSecond;
  cfg.fault = spec;
  replay::QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  EXPECT_EQ(report->queries_sent, trace.size());
  EXPECT_GT(report->impairments.lost(), 0u);
  // Conservation: every query is answered or counted lost.
  EXPECT_EQ(report->responses_received + report->lifecycle.expired, trace.size());
  // Every timeout either retried or expired the query.
  EXPECT_EQ(report->lifecycle.timeouts,
            report->lifecycle.retries + report->lifecycle.expired);
  // Retry budget 4 at 30% loss recovers nearly everything.
  EXPECT_GE(report->responses_received, trace.size() * 9 / 10);
  EXPECT_GE(report->lifecycle.answered_after_retry, 1u);
}

// A link flap at t=0 (the flap window starts at the stream origin) maps to
// connection loss on TCP, deterministically exercising reconnect-and-resend.
TEST(FaultScenarios, TcpFlapForcesReconnect) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());
  auto trace = fixed_trace(20, 2, Transport::Tcp);
  // 5 ms outage at the stream origin, next one not until 500 ms — long
  // after the 10 ms timed trace and its retries have drained.
  fault::FaultSpec spec = spec_of("flap:500ms/5ms,seed:3");

  replay::EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.timed = true;  // spreads sends across the down/up phases of the flap
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.max_retries = 4;
  cfg.query_timeout = 50 * kMilli;
  cfg.drain_grace = 10 * kSecond;
  cfg.fault = spec;
  replay::QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  // The first send of every source hits offset 0 of its stream — inside
  // the down window — so at least one flap drop and one reconnect are
  // guaranteed regardless of scheduling.
  EXPECT_GE(report->impairments.flap_dropped, 1u);
  EXPECT_GE(report->lifecycle.tcp_reconnects, 1u);
  EXPECT_EQ(report->responses_received + report->lifecycle.expired, trace.size());
  // Queries sent after the 5 ms down window find the link up and complete;
  // conservative bound so scheduling jitter can't flake the test.
  EXPECT_GE(report->responses_received, trace.size() / 4);
}

// ---------------------------------------------------------------------------
// slow_client knob: the engine really dribbles bytes, and a hardened
// frontend really ejects the dribbler (the two halves of PR 5 meeting).
// ---------------------------------------------------------------------------

// Every TCP connection is slow (p=1): frames go on the wire one byte per
// drip interval, so no query ever completes — the client starves itself —
// while the server's read deadline detects the stuck partial frame and
// closes each connection. Goodput zero, crashes zero, books balanced on
// both sides.
TEST(FaultScenarios, SlowClientDripStarvesItselfAndHardenedServerEjectsIt) {
  server::FrontendConfig fe;
  fe.limits.read_deadline = 150 * kMilli;
  fe.sweep_interval = 25 * kMilli;
  auto bg = server::BackgroundServer::start(wildcard_server(), fe);
  ASSERT_TRUE(bg.ok());
  auto trace = fixed_trace(8, 2, Transport::Tcp);

  replay::EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.timed = false;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.max_retries = 0;
  cfg.tcp_reconnect = false;  // a second slow connection proves nothing new
  cfg.query_timeout = 400 * kMilli;
  cfg.drain_grace = 5 * kSecond;
  cfg.fault = spec_of("slow_client:1,drip:25ms,seed:1");
  replay::QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  EXPECT_EQ(report->queries_sent, trace.size());
  EXPECT_EQ(report->responses_received, 0u);
  EXPECT_EQ(report->lifecycle.expired, trace.size());

  (*bg)->stop();
  const auto& conns = (*bg)->connections();
  EXPECT_GE(conns.accepted, 2u);  // one connection per source
  EXPECT_GE(conns.deadline_closed, 1u)
      << "read deadline never fired — were any bytes dripped?";
  EXPECT_TRUE(conns.consistent()) << conns.summary();
}

// The knob is TCP-only by construction: a UDP replay under slow_client:1
// is completely unaffected.
TEST(FaultScenarios, SlowClientKnobLeavesUdpUntouched) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());
  auto trace = fixed_trace(40, 4);

  replay::EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.timed = false;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.max_retries = 0;
  cfg.query_timeout = 500 * kMilli;
  cfg.drain_grace = 5 * kSecond;
  cfg.fault = spec_of("slow_client:1,drip:10ms,seed:1");
  replay::QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  EXPECT_EQ(report->queries_sent, trace.size());
  EXPECT_EQ(report->responses_received, trace.size());
}

// ---------------------------------------------------------------------------
// Shard-count equivalence: per-source outcomes are a function of the seed
// alone, not of how sources are partitioned across shards — with the
// retry budget on, so retransmits draw from the same per-source streams.
// ---------------------------------------------------------------------------

struct PerSourceTotals {
  uint64_t sends = 0;
  uint64_t answered = 0;
  uint64_t timed_out = 0;
  uint64_t retries = 0;
  bool operator==(const PerSourceTotals&) const = default;
};

std::map<std::string, PerSourceTotals> per_source(const replay::EngineReport& r) {
  std::map<std::string, PerSourceTotals> out;
  for (const auto& sr : r.sends) {
    auto& t = out[sr.source.to_string()];
    ++t.sends;
    if (sr.outcome == replay::QueryOutcome::Answered) ++t.answered;
    if (sr.outcome == replay::QueryOutcome::TimedOut) ++t.timed_out;
    t.retries += sr.retries;
  }
  return out;
}

TEST(FaultScenarios, ShardedCountsIndependentOfSplit) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());
  auto trace = fixed_trace(200, 8);
  fault::FaultSpec spec = spec_of("loss:0.2,seed:11");

  auto run = [&](size_t shards) {
    replay::EngineConfig cfg;
    cfg.server = (*bg)->endpoint();
    cfg.timed = false;
    cfg.shards = shards;
    cfg.distributors = 1;
    cfg.queriers_per_distributor = 1;
    cfg.max_retries = 2;
    cfg.query_timeout = 300 * kMilli;
    cfg.retry_backoff_cap = 600 * kMilli;
    cfg.drain_grace = 10 * kSecond;
    cfg.fault = spec;
    return replay::QueryEngine(cfg).replay(trace);
  };

  auto one = run(1);
  auto four = run(4);
  ASSERT_TRUE(one.ok()) << one.error().message;
  ASSERT_TRUE(four.ok()) << four.error().message;

  EXPECT_EQ(one->queries_sent, trace.size());
  EXPECT_EQ(four->queries_sent, trace.size());
  // Identical per-source lifecycle outcomes under either partitioning.
  auto totals_one = per_source(*one);
  auto totals_four = per_source(*four);
  ASSERT_EQ(totals_one.size(), totals_four.size());
  for (const auto& [source, totals] : totals_one) {
    auto it = totals_four.find(source);
    ASSERT_NE(it, totals_four.end()) << source;
    EXPECT_EQ(totals.sends, it->second.sends) << source;
    EXPECT_EQ(totals.answered, it->second.answered) << source;
    EXPECT_EQ(totals.timed_out, it->second.timed_out) << source;
    EXPECT_EQ(totals.retries, it->second.retries) << source;
  }
  // Aggregate impairment accounting matches too.
  EXPECT_EQ(one->impairments, four->impairments);
  expect_lifecycle_eq(one->lifecycle, four->lifecycle);
}

// ---------------------------------------------------------------------------
// Proxy pipeline path.
// ---------------------------------------------------------------------------

TEST(FaultScenarios, ProxyPipelineExactCounters) {
  IpAddr meta{Ip4{10, 9, 9, 9}};
  proxy::ServerProxy px(proxy::ServerProxy::Role::Recursive, meta);
  std::atomic<uint64_t> sent{0};
  proxy::ProxyPipeline pipe(px, [&sent](proxy::Datagram&&) { ++sent; },
                            /*workers=*/2);

  fault::FaultSpec spec = spec_of("loss:0.5,dup:0.1,corrupt:0.1,seed:9");
  fault::FaultStream stream(spec, "proxy:capture");
  pipe.set_fault(&stream);

  const size_t kPackets = 300;
  for (size_t i = 0; i < kPackets; ++i) {
    proxy::Datagram pkt;
    pkt.src = Endpoint{IpAddr{Ip4{192, 0, 2, static_cast<uint8_t>(i % 200 + 1)}},
                       static_cast<uint16_t>(40000 + i)};
    pkt.dst = Endpoint{IpAddr{Ip4{198, 51, 100, 1}}, 53};  // captured: dst :53
    pkt.payload.assign(32, static_cast<uint8_t>(i));
    pipe.submit(std::move(pkt));
  }
  pipe.shutdown();

  // Reference: same stream name, same number of draws.
  fault::FaultStream ref(spec, "proxy:capture");
  std::vector<uint8_t> scratch(32, 0);
  for (size_t i = 0; i < kPackets; ++i) {
    fault::Verdict v = ref.next(static_cast<TimeNs>(i));
    if (v.action == fault::Action::Corrupt) ref.corrupt(scratch);
  }
  const auto& expected = ref.counters();
  EXPECT_GT(expected.lost(), 0u);
  EXPECT_GT(expected.duplicated, 0u);
  EXPECT_EQ(pipe.impairments(), expected);
  // Drops never reach a worker; duplicates are forwarded twice.
  EXPECT_EQ(pipe.forwarded(), kPackets - expected.lost() + expected.duplicated);
  EXPECT_EQ(sent.load(), pipe.forwarded());
  EXPECT_EQ(pipe.dropped(), 0u);  // every surviving packet matched the rule
}

// ---------------------------------------------------------------------------
// ShardedMetaServer path: impaired delivery to the routed shards.
// ---------------------------------------------------------------------------

TEST(FaultScenarios, ShardedMetaServerImpairedPath) {
  server::ShardedMetaServer sharded(2);
  IpAddr key_a{Ip4{10, 3, 0, 1}}, key_b{Ip4{10, 3, 0, 2}};
  IpAddr unrouted{Ip4{9, 9, 9, 9}};
  auto mk_zone = [](const std::string& tld) {
    auto z = zone::parse_zone("$ORIGIN " + tld +
                              ".\n$TTL 3600\n@ IN SOA ns1 admin 1 2 3 4 300\n"
                              "@ IN NS ns1\nns1 IN A 192.0.2.1\n* IN A 192.0.2.80\n");
    EXPECT_TRUE(z.ok());
    return std::move(*z);
  };
  ASSERT_TRUE(sharded.add_zone(mk_zone("alpha"), {key_a}).ok());
  ASSERT_TRUE(sharded.add_zone(mk_zone("beta"), {key_b}).ok());

  fault::FaultSpec spec = spec_of("loss:0.25,seed:13");
  auto drive = [&](const char* stream_name) {
    fault::FaultStream stream(spec, stream_name);
    struct Tally {
      uint64_t lost = 0, answered = 0, refused = 0;
      fault::ImpairmentCounters impairments;
      bool operator==(const Tally&) const = default;
    } tally;
    for (int i = 0; i < 120; ++i) {
      // Every 10th query carries a view key no shard serves.
      const IpAddr& key =
          i % 10 == 9 ? unrouted : (i % 2 == 0 ? key_a : key_b);
      const char* tld = i % 2 == 0 ? "alpha" : "beta";
      dns::Message q = dns::Message::make_query(
          static_cast<uint16_t>(i),
          *dns::Name::parse("www." + std::string(tld)), dns::RRType::A);
      fault::Verdict v = stream.next(static_cast<TimeNs>(i) * kMilli);
      if (v.is_drop()) {
        ++tally.lost;
        continue;
      }
      dns::Message r = sharded.answer(q, key);
      if (r.header.rcode == dns::Rcode::Refused) {
        ++tally.refused;
      } else {
        EXPECT_EQ(r.header.rcode, dns::Rcode::NoError);
        ++tally.answered;
      }
    }
    tally.impairments = stream.counters();
    return tally;
  };

  auto run1 = drive("shard:path");
  auto run2 = drive("shard:path");
  EXPECT_TRUE(run1 == run2);  // byte-identical replays
  EXPECT_GT(run1.lost, 0u);
  EXPECT_GT(run1.refused, 0u);  // unrouted keys that survived the link
  EXPECT_EQ(run1.lost + run1.answered + run1.refused, 120u);
  EXPECT_EQ(run1.impairments.processed, 120u);
  EXPECT_EQ(run1.impairments.lost(), run1.lost);

  // A different stream name draws a different (but equally deterministic)
  // impairment pattern over the same query sequence.
  auto other = drive("shard:other");
  EXPECT_EQ(other.lost + other.answered + other.refused, 120u);
  EXPECT_TRUE(drive("shard:other") == other);
}

}  // namespace
}  // namespace ldp

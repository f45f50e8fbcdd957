// Tests for the paper's stated extension/future-work features implemented
// here: zone partitioning across server shards (§3), CDN-style answer
// rotation (§2.3), live mutation during replay (§2.2), sharded input
// splitting (§2.6), and DoS attack workloads (§1).
#include <gtest/gtest.h>

#include "replay/engine.hpp"
#include "server/background.hpp"
#include "server/shard.hpp"
#include "simnet/replay_sim.hpp"
#include "synth/generator.hpp"
#include "zone/parser.hpp"

namespace ldp {
namespace {

using dns::Message;
using dns::Name;
using dns::Rcode;
using dns::RRType;

Name mk(std::string_view s) { return *Name::parse(s); }

zone::Zone tld_zone(const std::string& tld) {
  auto z = zone::parse_zone("$ORIGIN " + tld +
                            ".\n$TTL 3600\n@ IN SOA ns1 admin 1 2 3 4 300\n"
                            "@ IN NS ns1\nns1 IN A 192.0.2.1\n* IN A 192.0.2.80\n");
  EXPECT_TRUE(z.ok());
  return std::move(*z);
}

// --- sharded meta server ----------------------------------------------------

TEST(ShardedMetaServer, ZonesSpreadAcrossShards) {
  server::ShardedMetaServer sharded(3);
  for (int i = 0; i < 9; ++i) {
    IpAddr addr{Ip4{10, 3, 0, static_cast<uint8_t>(i + 1)}};
    auto shard = sharded.add_zone(tld_zone("tld" + std::to_string(i)), {addr});
    ASSERT_TRUE(shard.ok()) << shard.error().message;
  }
  auto loads = sharded.zones_per_shard();
  ASSERT_EQ(loads.size(), 3u);
  for (size_t n : loads) EXPECT_EQ(n, 3u);  // balanced
}

TEST(ShardedMetaServer, RoutingFollowsViewKey) {
  server::ShardedMetaServer sharded(2);
  IpAddr a{Ip4{10, 3, 0, 1}}, b{Ip4{10, 3, 0, 2}};
  auto s1 = sharded.add_zone(tld_zone("alpha"), {a});
  auto s2 = sharded.add_zone(tld_zone("beta"), {b});
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*sharded.route(a), *s1);
  EXPECT_EQ(*sharded.route(b), *s2);
  EXPECT_FALSE(sharded.route(IpAddr{Ip4{9, 9, 9, 9}}).has_value());

  Message q = Message::make_query(1, mk("www.alpha"), RRType::A, false);
  Message r = sharded.answer(q, a);
  EXPECT_EQ(r.header.rcode, Rcode::NoError);
  ASSERT_EQ(r.answers.size(), 1u);

  // The wrong view key reaches a shard that refuses (or no shard at all).
  Message wrong = sharded.answer(q, IpAddr{Ip4{9, 9, 9, 9}});
  EXPECT_EQ(wrong.header.rcode, Rcode::Refused);
}

TEST(ShardedMetaServer, SharedNameserverAddressPinsShard) {
  // Two zones served by the same nameserver must land on the same shard.
  server::ShardedMetaServer sharded(4);
  IpAddr shared_ns{Ip4{10, 3, 0, 7}};
  auto s1 = sharded.add_zone(tld_zone("one"), {shared_ns});
  auto s2 = sharded.add_zone(tld_zone("two"), {shared_ns, IpAddr{Ip4{10, 3, 0, 8}}});
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s1, *s2);
}

TEST(ShardedMetaServer, StraddlingAddressesRejected) {
  server::ShardedMetaServer sharded(2);
  IpAddr a{Ip4{10, 3, 1, 1}}, b{Ip4{10, 3, 1, 2}};
  ASSERT_TRUE(sharded.add_zone(tld_zone("one"), {a}).ok());
  ASSERT_TRUE(sharded.add_zone(tld_zone("two"), {b}).ok());
  // A zone claiming both nameservers can't be placed if they ended up on
  // different shards.
  auto r = sharded.add_zone(tld_zone("three"), {a, b});
  if (*sharded.route(a) != *sharded.route(b)) {
    EXPECT_FALSE(r.ok());
  }
}

TEST(ShardedMetaServer, NoAddressesRejected) {
  server::ShardedMetaServer sharded(2);
  EXPECT_FALSE(sharded.add_zone(tld_zone("x"), {}).ok());
}

TEST(ShardedMetaServer, StraddlingRejectionIsDeterministicAndAtomic) {
  // With two empty shards, the first distinct identity lands on shard 0 and
  // the second on shard 1 (least-loaded placement), so a zone claiming both
  // is a guaranteed straddle — no hash luck involved.
  server::ShardedMetaServer sharded(2);
  IpAddr a{Ip4{10, 3, 2, 1}}, b{Ip4{10, 3, 2, 2}}, c{Ip4{10, 3, 2, 3}};
  ASSERT_TRUE(sharded.add_zone(tld_zone("one"), {a}).ok());
  ASSERT_TRUE(sharded.add_zone(tld_zone("two"), {b}).ok());
  ASSERT_NE(*sharded.route(a), *sharded.route(b));

  auto loads_before = sharded.zones_per_shard();
  auto r = sharded.add_zone(tld_zone("three"), {a, c, b});
  EXPECT_FALSE(r.ok());
  // Rejection must be atomic: the fresh address in the failed zone's
  // nameserver set is not registered, and no shard gained a zone.
  EXPECT_FALSE(sharded.route(c).has_value());
  EXPECT_EQ(sharded.zones_per_shard(), loads_before);

  // Queries keyed on the never-registered address are refused, not
  // misrouted to whichever shard the failed add_zone was aimed at.
  Message q = Message::make_query(3, mk("www.three"), RRType::A, false);
  EXPECT_EQ(sharded.answer(q, c).header.rcode, Rcode::Refused);
}

TEST(ShardedMetaServer, InterleavedAddsRebalanceAroundPinnedShard) {
  // A shared nameserver identity pins zones to one shard and skews the
  // load; subsequent distinct-identity adds must flow to the least-loaded
  // shards until everything levels out again.
  server::ShardedMetaServer sharded(3);
  IpAddr pinned_ns{Ip4{10, 3, 3, 1}};
  ASSERT_TRUE(sharded.add_zone(tld_zone("pin0"), {pinned_ns}).ok());
  const size_t pinned_shard = *sharded.route(pinned_ns);
  for (int i = 1; i < 4; ++i) {
    auto s = sharded.add_zone(tld_zone("pin" + std::to_string(i)), {pinned_ns});
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(*s, pinned_shard);
  }
  // One shard now holds 4 zones, the others 0. Eight distinct identities,
  // interleaved with lookups, should fill the other shards back to parity.
  for (int i = 0; i < 8; ++i) {
    IpAddr addr{Ip4{10, 3, 4, static_cast<uint8_t>(i + 1)}};
    auto s = sharded.add_zone(tld_zone("solo" + std::to_string(i)), {addr});
    ASSERT_TRUE(s.ok());
    EXPECT_NE(*s, pinned_shard) << "add " << i << " placed on the loaded shard";
    EXPECT_EQ(*sharded.route(addr), *s);
  }
  auto loads = sharded.zones_per_shard();
  ASSERT_EQ(loads.size(), 3u);
  for (size_t n : loads) EXPECT_EQ(n, 4u);  // 12 zones, perfectly level

  // The pinned identity still answers through its shard after the
  // rebalance (view match is first-wins, so the key reaches pin0's view).
  Message q = Message::make_query(4, mk("www.pin0"), RRType::A, false);
  EXPECT_EQ(sharded.answer(q, pinned_ns).header.rcode, Rcode::NoError);
}

// --- CDN answer rotation -----------------------------------------------------

TEST(CdnRotation, SuccessiveQueriesSeeRotatedFirstAnswer) {
  server::ServerConfig cfg;
  cfg.rotate_answers = true;
  server::AuthServer s(cfg);
  auto z = zone::parse_zone(R"(
$ORIGIN cdn.example.
$TTL 60
@ IN SOA ns1 admin 1 2 3 4 60
@ IN NS ns1
ns1 IN A 192.0.2.1
www IN A 192.0.2.10
www IN A 192.0.2.11
www IN A 192.0.2.12
)");
  ASSERT_TRUE(z.ok());
  ASSERT_TRUE(s.default_zones().add(std::move(*z)).ok());

  IpAddr client{Ip4{10, 0, 0, 1}};
  std::set<std::string> first_answers;
  for (int i = 0; i < 6; ++i) {
    Message q = Message::make_query(static_cast<uint16_t>(i), mk("www.cdn.example"),
                                    RRType::A);
    Message r = s.answer(q, client);
    ASSERT_EQ(r.answers.size(), 3u);
    const auto* a = r.answers[0].rdata.get_if<dns::AData>();
    ASSERT_NE(a, nullptr);
    first_answers.insert(a->addr.to_string());
  }
  EXPECT_EQ(first_answers.size(), 3u);  // all three addresses led once
}

TEST(CdnRotation, OffByDefault) {
  server::AuthServer s;
  auto z = zone::parse_zone(R"(
$ORIGIN cdn.example.
$TTL 60
@ IN SOA ns1 admin 1 2 3 4 60
@ IN NS ns1
ns1 IN A 192.0.2.1
www IN A 192.0.2.10
www IN A 192.0.2.11
)");
  ASSERT_TRUE(z.ok());
  ASSERT_TRUE(s.default_zones().add(std::move(*z)).ok());
  IpAddr client{Ip4{10, 0, 0, 1}};
  std::set<std::string> first_answers;
  for (int i = 0; i < 4; ++i) {
    Message q = Message::make_query(static_cast<uint16_t>(i), mk("www.cdn.example"),
                                    RRType::A);
    Message r = s.answer(q, client);
    ASSERT_FALSE(r.answers.empty());
    const auto* a = r.answers[0].rdata.get_if<dns::AData>();
    ASSERT_NE(a, nullptr);
    first_answers.insert(a->addr.to_string());
  }
  EXPECT_EQ(first_answers.size(), 1u);  // stable order
}

// --- attack workloads ---------------------------------------------------------

TEST(AttackTrace, RandomSubdomainShape) {
  synth::AttackTraceSpec spec;
  spec.rate_qps = 5000;
  spec.duration_ns = 2 * kSecond;
  spec.spoofed_sources = 5000;
  spec.seed = 3;
  auto trace = synth::make_attack_trace(spec);
  ASSERT_GT(trace.size(), 8000u);
  ASSERT_LT(trace.size(), 12000u);

  std::set<std::string> qnames;
  for (const auto& rec : trace) {
    auto msg = rec.message();
    ASSERT_TRUE(msg.ok());
    const auto& qname = msg->questions[0].qname;
    EXPECT_TRUE(qname.is_subdomain_of(mk("example.com")));
    qnames.insert(qname.to_string());
  }
  // Water torture: (almost) every qname unique, defeating caches.
  EXPECT_GT(qnames.size(), trace.size() * 99 / 100);
}

TEST(AttackTrace, DirectFloodSingleName) {
  synth::AttackTraceSpec spec;
  spec.kind = synth::AttackTraceSpec::Kind::DirectFlood;
  spec.rate_qps = 5000;
  spec.duration_ns = kSecond;
  spec.seed = 4;
  auto trace = synth::make_attack_trace(spec);
  std::set<std::string> qnames;
  for (const auto& rec : trace) {
    auto msg = rec.message();
    qnames.insert(msg->questions[0].qname.to_string());
  }
  EXPECT_EQ(qnames.size(), 1u);
}

TEST(AttackTrace, DrivesNxDomainLoadOnServer) {
  // Replay a water-torture attack through the simulator: every query misses
  // (NXDOMAIN) and the server answers all of it — the §1 DoS study's
  // baseline measurement.
  server::AuthServer s;
  auto z = zone::parse_zone(R"(
$ORIGIN example.com.
$TTL 3600
@ IN SOA ns1 admin 1 2 3 4 300
@ IN NS ns1
ns1 IN A 192.0.2.1
www IN A 192.0.2.80
)");
  ASSERT_TRUE(z.ok());
  ASSERT_TRUE(s.default_zones().add(std::move(*z)).ok());

  synth::AttackTraceSpec spec;
  spec.rate_qps = 2000;
  spec.duration_ns = 5 * kSecond;
  spec.seed = 5;
  auto trace = synth::make_attack_trace(spec);

  simnet::SimReplayConfig cfg;
  cfg.sample_interval = kSecond;
  auto result = simnet::simulate_replay(trace, s, cfg);
  EXPECT_EQ(result.responses, result.queries);
  EXPECT_GT(s.stats().nxdomain.load(), result.queries * 95 / 100);
}

// --- live mutation & sharded replay ------------------------------------------

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

TEST(LiveMutation, AppliedDuringReplay) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 5 * kMilli;
  spec.duration_ns = kSecond / 2;
  spec.client_count = 10;
  auto trace = synth::make_fixed_trace(spec);

  // Live pipeline: drop every other query by qtype filter after forcing
  // half to AAAA.
  mutate::MutatorPipeline live;
  int counter = 0;
  live.edit_message([&counter](dns::Message& msg) {
    if (++counter % 2 == 0) msg.questions[0].qtype = dns::RRType::AAAA;
  });
  live.filter([](const trace::TraceRecord&, const dns::Message& msg) {
    return msg.questions[0].qtype == dns::RRType::A;
  });

  replay::EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.live_mutator = &live;
  replay::QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->mutator_dropped, trace.size() / 2);
  EXPECT_EQ(report->queries_sent, trace.size() / 2);
  EXPECT_EQ(report->responses_received, report->queries_sent);
}

// §2.6 input splitting: three shards replay slices of one trace, fed by
// one controller on one shared clock, and the merged report covers it all.
TEST(ShardedReplay, SplitsAndMergesFaithfully) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 2 * kMilli;
  spec.duration_ns = kSecond;
  spec.client_count = 40;
  auto trace = synth::make_fixed_trace(spec);

  replay::EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.shards = 3;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  auto report = replay::QueryEngine(cfg).replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report->queries_sent, trace.size());
  // Tolerate rare UDP loss when the whole suite contends for one core.
  EXPECT_GE(report->responses_received, trace.size() * 95 / 100);

  // Timing still tracks the shared clock: never early, mostly on time.
  TimeNs t0 = trace.front().timestamp;
  Sampler err_ms;
  for (const auto& sr : report->sends)
    err_ms.add(ns_to_ms((sr.send_time - report->replay_start) - (sr.trace_time - t0)));
  EXPECT_GE(err_ms.summary().min, -1.0);
  EXPECT_LT(err_ms.summary().median, 200.0);
}

}  // namespace
}  // namespace ldp

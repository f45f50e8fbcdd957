// End-to-end tests of the distributed query engine over real loopback
// sockets: timing fidelity (the §4.2 claims at small scale), fast mode,
// TCP connection reuse, same-source stickiness, response matching, the
// controller lookahead and report merging.
#include <gtest/gtest.h>

#include "replay/engine.hpp"
#include "replay/schedule.hpp"
#include "server/background.hpp"
#include "synth/generator.hpp"
#include "zone/parser.hpp"

namespace ldp::replay {
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

TEST(ReplayClockT, DelayMath) {
  ReplayClock clock;
  clock.start(/*trace=*/1000 * kSecond, /*real=*/500 * kSecond);
  // Query 3s into the trace, 1s of real time already burned: wait 2s.
  EXPECT_EQ(clock.delay_for(1003 * kSecond, 501 * kSecond), 2 * kSecond);
  // Input fell behind: negative delay means send immediately.
  EXPECT_LT(clock.delay_for(1001 * kSecond, 503 * kSecond), 0);
  EXPECT_EQ(clock.deadline_for(1003 * kSecond), 503 * kSecond);
}

TEST(QueryEngineT, RepliesReceivedOverUdp) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok()) << bg.error().message;

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 5 * kMilli;
  spec.duration_ns = kSecond / 2;  // 100 queries
  spec.client_count = 10;
  auto trace = synth::make_fixed_trace(spec);

  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report->queries_sent, trace.size());
  EXPECT_EQ(report->responses_received, trace.size());
  EXPECT_EQ(report->send_errors, 0u);
  for (const auto& sr : report->sends) {
    EXPECT_GE(sr.latency, 0) << "unanswered query";
    EXPECT_LT(sr.latency, kSecond);
  }
}

TEST(QueryEngineT, TimingFidelity) {
  // The miniature Figure 6: with 10ms spacing, send-time offsets from the
  // replay origin should track trace offsets within a few ms.
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 10 * kMilli;
  spec.duration_ns = kSecond;
  spec.client_count = 5;
  auto trace = synth::make_fixed_trace(spec);

  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->sends.size(), trace.size());

  TimeNs t0_trace = trace.front().timestamp;
  Sampler error_ms;
  for (const auto& sr : report->sends) {
    TimeNs ideal = sr.trace_time - t0_trace;
    TimeNs actual = sr.send_time - report->replay_start;
    error_ms.add(ns_to_ms(actual - ideal));
  }
  auto sum = error_ms.summary();
  // Single-core CI machine: generous but still ms-scale bounds (the paper
  // reports ±8ms quartiles at much higher rates on dedicated hardware).
  EXPECT_GE(sum.min, -1.0) << "sent before schedule";
  EXPECT_LT(sum.q3, 15.0);
  EXPECT_LT(sum.max, 100.0);
}

TEST(QueryEngineT, FastModeIgnoresTraceTiming) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());

  // A 10-second trace replayed in far less wall time.
  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 100 * kMilli;
  spec.duration_ns = 10 * kSecond;
  spec.client_count = 4;
  auto trace = synth::make_fixed_trace(spec);

  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.timed = false;
  QueryEngine engine(cfg);
  TimeNs start = mono_now_ns();
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->queries_sent, trace.size());
  EXPECT_LT(mono_now_ns() - start, 5 * kSecond);
}

// The controller hands a timed record off no earlier than the lookahead
// before its deadline, so a querier's schedule holds a window of the trace,
// not the rest of it. The live mutator runs on the controller just before
// each handoff, so the stamp taken for record k+1 comes after record k was
// handed off: it must not precede record k's deadline minus the lookahead.
TEST(QueryEngineT, TimedHandoffWaitsForTheLookahead) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 5 * kMilli;
  spec.duration_ns = kSecond;  // 200 queries, 20 lookahead windows long
  spec.client_count = 4;
  auto trace = synth::make_fixed_trace(spec);

  std::vector<TimeNs> stamps;
  mutate::MutatorPipeline stamp;
  stamp.edit_record([&stamps](TraceRecord&) { stamps.push_back(mono_now_ns()); });

  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.live_mutator = &stamp;
  ReplayClock clock;
  clock.start(trace.front().timestamp, mono_now_ns() + 100 * kMilli);
  QueryEngine engine(cfg);
  auto report = engine.replay(trace, &clock);
  ASSERT_TRUE(report.ok()) << report.error().message;

  ASSERT_EQ(stamps.size(), trace.size());
  for (size_t k = 0; k + 1 < trace.size(); ++k)
    EXPECT_GE(stamps[k + 1],
              clock.deadline_for(trace[k].timestamp) - kControllerLookahead)
        << "record " << k << " handed off before its lookahead window";
  EXPECT_EQ(report->queries_sent, trace.size());
  EXPECT_EQ(report->responses_received, trace.size());
  EXPECT_EQ(report->send_errors, 0u);
}

// The first report merged into an empty one hands over its send records
// as they were; later ones append after them.
TEST(EngineReportT, MergeIntoEmptyKeepsSends) {
  auto send = [](TimeNs trace_time, TimeNs send_time, uint32_t querier) {
    SendRecord sr;
    sr.trace_time = trace_time;
    sr.send_time = send_time;
    sr.latency = trace_time % 2 == 0 ? 3 * kMilli : -1;
    sr.source = IpAddr{Ip4{10, 0, 0, static_cast<uint8_t>(querier)}};
    sr.querier = querier;
    sr.outcome = sr.latency >= 0 ? QueryOutcome::Answered : QueryOutcome::TimedOut;
    return sr;
  };
  auto same = [](const SendRecord& a, const SendRecord& b) {
    return a.trace_time == b.trace_time && a.send_time == b.send_time &&
           a.latency == b.latency && a.source == b.source &&
           a.querier == b.querier && a.retries == b.retries &&
           a.outcome == b.outcome;
  };
  EngineReport first, second;
  for (TimeNs t = 1; t <= 5; ++t) first.sends.push_back(send(t, 100 + t, 0));
  for (TimeNs t = 6; t <= 8; ++t) second.sends.push_back(send(t, 100 + t, 1));
  std::vector<SendRecord> expected = first.sends;
  expected.insert(expected.end(), second.sends.begin(), second.sends.end());

  EngineReport merged;
  merged.merge_from(std::move(first));
  ASSERT_EQ(merged.sends.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_TRUE(same(merged.sends[i], expected[i])) << i;
  EXPECT_EQ(merged.replay_start, 101);  // lowered to the first send
  merged.merge_from(std::move(second));
  ASSERT_EQ(merged.sends.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i)
    EXPECT_TRUE(same(merged.sends[i], expected[i])) << i;
}

TEST(QueryEngineT, TcpConnectionsReusedPerSource) {
  server::FrontendConfig fe_cfg;
  fe_cfg.tcp_idle_timeout = 20 * kSecond;
  auto bg = server::BackgroundServer::start(wildcard_server(), fe_cfg);
  ASSERT_TRUE(bg.ok());

  // 4 distinct sources, 10 queries each, all TCP, bunched in time.
  std::vector<TraceRecord> trace;
  int seq = 0;
  for (int c = 0; c < 4; ++c) {
    IpAddr client{Ip4{10, 0, 0, static_cast<uint8_t>(c + 1)}};
    for (int i = 0; i < 10; ++i) {
      dns::Message q = dns::Message::make_query(
          static_cast<uint16_t>(seq),
          *dns::Name::parse("q" + std::to_string(seq) + ".example.com"),
          dns::RRType::A);
      trace.push_back(trace::make_query_record(seq * 2 * kMilli,
                                               Endpoint{client, 50000},
                                               Endpoint{IpAddr{}, 53}, q,
                                               Transport::Tcp));
      ++seq;
    }
  }

  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->queries_sent, 40u);
  EXPECT_EQ(report->responses_received, 40u);
  // Same-source stickiness + reuse: exactly one connection per source.
  EXPECT_EQ(report->connections_opened, 4u);
  (*bg)->stop();
  EXPECT_EQ((*bg)->connections().accepted, 4u);
}

TEST(QueryEngineT, MultipleDistributorsAndQueriersPartitionWork) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = kMilli;
  spec.duration_ns = kSecond / 2;
  spec.client_count = 50;
  auto trace = synth::make_fixed_trace(spec);

  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.distributors = 2;
  cfg.queriers_per_distributor = 2;
  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->queries_sent, trace.size());
  EXPECT_EQ(report->responses_received, trace.size());

  // All four queriers participated.
  std::set<uint32_t> queriers;
  for (const auto& sr : report->sends) queriers.insert(sr.querier);
  EXPECT_EQ(queriers.size(), 4u);
}

TEST(QueryEngineT, SameSourceAlwaysSameQuerier) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());

  // Two sources interleaved; record which querier handled each source by
  // marking queries with per-source ids.
  std::vector<TraceRecord> trace;
  for (int i = 0; i < 40; ++i) {
    IpAddr client{Ip4{10, 9, 0, static_cast<uint8_t>(1 + (i % 2))}};
    dns::Message q = dns::Message::make_query(
        static_cast<uint16_t>(i), *dns::Name::parse("s.example.com"), dns::RRType::A);
    trace.push_back(trace::make_query_record(i * kMilli, Endpoint{client, 40000},
                                             Endpoint{IpAddr{}, 53}, q));
  }

  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.distributors = 2;
  cfg.queriers_per_distributor = 2;
  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok());

  // Reconstruct source -> querier from the send order: sends alternate by
  // trace construction, and SendRecord keeps the trace time, so match by
  // timestamp parity.
  std::map<int, std::set<uint32_t>> queriers_by_source;
  for (const auto& sr : report->sends) {
    int source = static_cast<int>((sr.trace_time / kMilli) % 2);
    queriers_by_source[source].insert(sr.querier);
  }
  for (const auto& [source, qs] : queriers_by_source) {
    EXPECT_EQ(qs.size(), 1u) << "source " << source << " split across queriers";
  }
}

TEST(QueryEngineT, EmptyTraceRejected) {
  EngineConfig cfg;
  cfg.server = Endpoint{IpAddr{Ip4{127, 0, 0, 1}}, 5300};
  QueryEngine engine(cfg);
  EXPECT_FALSE(engine.replay({}).ok());
}

TEST(QueryEngineT, UnansweredQueriesDrainAfterGrace) {
  // No server: every query goes unanswered; the engine must still return
  // after the grace period with latency = -1 markers.
  EngineConfig cfg;
  cfg.server = Endpoint{IpAddr{Ip4{127, 0, 0, 1}}, 1};  // nothing listens
  cfg.drain_grace = 200 * kMilli;
  QueryEngine engine(cfg);

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 10 * kMilli;
  spec.duration_ns = 100 * kMilli;
  auto trace = synth::make_fixed_trace(spec);

  TimeNs start = mono_now_ns();
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(mono_now_ns() - start, 5 * kSecond);
  EXPECT_EQ(report->responses_received, 0u);
  for (const auto& sr : report->sends) EXPECT_EQ(sr.latency, -1);
}

}  // namespace
}  // namespace ldp::replay

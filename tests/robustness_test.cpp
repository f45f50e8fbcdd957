// Self-healing replay pipeline tests: supervision (a stalled querier is
// detected, reaped, and its work finishes on a sibling), overload shedding
// (a saturated queue sheds with accounting instead of stalling), and
// deterministic checkpoint/resume (a replay cut in two produces the same
// books as one that never stopped). Plus unit coverage for
// EngineReport::merge_from and the checkpoint file format.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "replay/checkpoint.hpp"
#include "replay/dist/protocol.hpp"
#include "replay/engine.hpp"
#include "replay/supervisor.hpp"
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

std::string temp_path(const char* stem) {
  return testing::TempDir() + stem + std::to_string(::getpid());
}

// --- EngineReport::merge_from -----------------------------------------------

TEST(EngineReportT, MergeSumsCountersAndWidensTimeline) {
  EngineReport a;
  a.queries_sent = 10;
  a.responses_received = 8;
  a.send_errors = 1;
  a.connections_opened = 2;
  a.mutator_dropped = 3;
  a.max_in_flight = 5;
  a.querier_failures = 1;
  a.sources_reassigned = 4;
  a.shed_queries = 7;
  a.queue_hwm = 16;
  a.clamp_stall_ns = 100;
  a.lifecycle.timeouts = 2;
  a.lifecycle.retries = 1;
  a.impairments.dropped = 6;
  a.latency_hist.add(kMilli);
  a.latency_hist.add(2 * kMilli);
  a.replay_start = 1000;
  a.replay_end = 5000;
  a.sends.push_back(SendRecord{.trace_time = 0, .send_time = 1200});

  EngineReport b;
  b.queries_sent = 5;
  b.responses_received = 5;
  b.max_in_flight = 9;
  b.querier_failures = 2;
  b.sources_reassigned = 1;
  b.shed_queries = 3;
  b.queue_hwm = 12;
  b.clamp_stall_ns = 50;
  b.lifecycle.timeouts = 1;
  b.impairments.dropped = 2;
  b.latency_hist.add(4 * kMilli);
  b.replay_start = 800;  // earlier start must win
  b.replay_end = 9000;
  b.sends.push_back(SendRecord{.trace_time = 0, .send_time = 900});

  a.merge_from(std::move(b));
  EXPECT_EQ(a.queries_sent, 15u);
  EXPECT_EQ(a.responses_received, 13u);
  EXPECT_EQ(a.send_errors, 1u);
  EXPECT_EQ(a.connections_opened, 2u);
  EXPECT_EQ(a.mutator_dropped, 3u);
  EXPECT_EQ(a.max_in_flight, 9u);       // max, not sum
  EXPECT_EQ(a.querier_failures, 3u);
  EXPECT_EQ(a.sources_reassigned, 5u);
  EXPECT_EQ(a.shed_queries, 10u);
  EXPECT_EQ(a.queue_hwm, 16u);          // max, not sum
  EXPECT_EQ(a.clamp_stall_ns, 150u);
  EXPECT_EQ(a.lifecycle.timeouts, 3u);
  EXPECT_EQ(a.lifecycle.retries, 1u);
  EXPECT_EQ(a.impairments.dropped, 8u);
  EXPECT_EQ(a.latency_hist.count(), 3u);  // histograms merge
  EXPECT_EQ(a.latency_hist.min(), kMilli);
  EXPECT_EQ(a.latency_hist.max(), 4 * kMilli);
  EXPECT_EQ(a.replay_start, 800);
  EXPECT_EQ(a.replay_end, 9000);
  EXPECT_EQ(a.sends.size(), 2u);
}

TEST(EngineReportT, MergeIgnoresZeroStartAndSentinelSendTimes) {
  EngineReport a;
  a.replay_start = 2000;
  a.replay_end = 3000;

  // A checkpoint's partial report has no timing; its zero replay_start must
  // not clobber a real one, and send_time == 0 sentinels (restored records
  // never re-sent) must not drag replay_start to zero.
  EngineReport partial;
  partial.queries_sent = 4;
  partial.replay_start = 0;
  partial.sends.push_back(SendRecord{.trace_time = 7, .send_time = 0});
  a.merge_from(std::move(partial));
  EXPECT_EQ(a.replay_start, 2000);
  EXPECT_EQ(a.replay_end, 3000);

  // But a real earlier send still lowers it (fast-mode widening).
  EngineReport early;
  early.sends.push_back(SendRecord{.trace_time = 7, .send_time = 1500});
  a.merge_from(std::move(early));
  EXPECT_EQ(a.replay_start, 1500);

  // And a merged-into-empty report adopts the other's start wholesale.
  EngineReport fresh;
  EngineReport timed;
  timed.replay_start = 4000;
  fresh.merge_from(std::move(timed));
  EXPECT_EQ(fresh.replay_start, 4000);
}

// --- supervisor primitives --------------------------------------------------

TEST(SupervisorT, FiresOncePerStaleWatchAndHonoursDone) {
  Heartbeat stale, busy, done;
  std::atomic<int> fired{0};
  // Generous timeout vs. beat period: under a loaded test machine (parallel
  // ctest, TSan) the beating thread can be descheduled for tens of ms, and a
  // tight margin turns that jitter into a false "busy declared dead".
  Supervisor sup(Supervisor::Config{5 * kMilli, 250 * kMilli, 0});
  sup.watch("stale", &stale, [&] { fired.fetch_add(1); });
  sup.watch("busy", &busy, [&] { ADD_FAILURE() << "busy querier declared dead"; });
  sup.watch("done", &done, [&] { ADD_FAILURE() << "done querier declared dead"; });
  done.mark_done();
  sup.start();
  // `busy` keeps beating; `stale` never does.
  for (int i = 0; i < 120; ++i) {
    busy.beat();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  sup.stop();
  EXPECT_EQ(fired.load(), 1);  // at most once, even over many intervals
  EXPECT_EQ(sup.failures_detected(), 1u);
}

TEST(SupervisorT, CheckpointTickerRunsPeriodically) {
  Supervisor sup(Supervisor::Config{5 * kMilli, kSecond, 10 * kMilli});
  std::atomic<int> ticks{0};
  sup.set_checkpoint([&] { ticks.fetch_add(1); });
  sup.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  sup.stop();
  EXPECT_GE(ticks.load(), 3);
}

// --- checkpoint file format -------------------------------------------------

CheckpointState sample_state() {
  CheckpointState st;
  st.trace_hash = 0xdeadbeefcafef00dULL;
  st.trace_queries = 400;
  st.partial.queries_sent = 123;
  st.partial.responses_received = 100;
  st.partial.send_errors = 2;
  st.partial.connections_opened = 7;
  st.partial.mutator_dropped = 5;
  st.partial.max_in_flight = 31;
  st.partial.querier_failures = 1;
  st.partial.sources_reassigned = 3;
  st.partial.shed_queries = 11;
  st.partial.queue_hwm = 64;
  st.partial.clamp_stall_ns = 987654321;
  st.partial.lifecycle.timeouts = 9;
  st.partial.lifecycle.retries = 6;
  st.partial.lifecycle.expired = 3;
  st.partial.lifecycle.adopted_resends = 2;
  st.partial.impairments.processed = 200;
  st.partial.impairments.dropped = 17;
  st.partial.latency_hist.add(kMilli);
  st.partial.latency_hist.add(3 * kMilli);
  st.partial.latency_hist.add(700 * kMicro);
  st.sent["10.1.0.1"] = 40;
  st.sent["10.1.0.2"] = 41;
  fault::FaultStream::Position pos;
  pos.packets = 55;
  pos.corrupt_words = 9;
  pos.origin_offset = -123456;  // fast mode offsets go negative
  st.streams["udp:10.1.0.1"] = pos;
  st.streams["tcp:10.1.0.2"] = fault::FaultStream::Position{};  // unlatched
  CheckpointPending pq;
  pq.record.trace_time = 77 * kSecond;
  pq.record.querier = 3;
  pq.record.retries = 1;
  pq.record.source = *IpAddr::parse("10.1.0.2");
  pq.transport = Transport::Tcp;
  pq.retries_used = 1;
  pq.payload = {0xab, 0xcd, 0x01, 0x02, 0x03};
  st.pending.push_back(pq);
  return st;
}

TEST(CheckpointT, SaveLoadRoundTrips) {
  std::string path = temp_path("ldp_ckpt_roundtrip_");
  CheckpointState st = sample_state();
  auto saved = save_checkpoint(path, st);
  ASSERT_TRUE(saved.ok()) << saved.error().message;

  auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded->trace_hash, st.trace_hash);
  EXPECT_EQ(loaded->trace_queries, st.trace_queries);
  EXPECT_EQ(loaded->partial.queries_sent, st.partial.queries_sent);
  EXPECT_EQ(loaded->partial.responses_received, st.partial.responses_received);
  EXPECT_EQ(loaded->partial.send_errors, st.partial.send_errors);
  EXPECT_EQ(loaded->partial.connections_opened,
            st.partial.connections_opened);
  EXPECT_EQ(loaded->partial.mutator_dropped, st.partial.mutator_dropped);
  EXPECT_EQ(loaded->partial.max_in_flight, st.partial.max_in_flight);
  EXPECT_EQ(loaded->partial.querier_failures, st.partial.querier_failures);
  EXPECT_EQ(loaded->partial.sources_reassigned,
            st.partial.sources_reassigned);
  EXPECT_EQ(loaded->partial.shed_queries, st.partial.shed_queries);
  EXPECT_EQ(loaded->partial.queue_hwm, st.partial.queue_hwm);
  EXPECT_EQ(loaded->partial.clamp_stall_ns, st.partial.clamp_stall_ns);
  EXPECT_EQ(loaded->partial.lifecycle.timeouts, st.partial.lifecycle.timeouts);
  EXPECT_EQ(loaded->partial.lifecycle.retries, st.partial.lifecycle.retries);
  EXPECT_EQ(loaded->partial.lifecycle.expired, st.partial.lifecycle.expired);
  EXPECT_EQ(loaded->partial.lifecycle.adopted_resends,
            st.partial.lifecycle.adopted_resends);
  EXPECT_TRUE(loaded->partial.impairments == st.partial.impairments);
  // Histogram round-trips losslessly: buckets, extremes, and exact sum.
  EXPECT_EQ(loaded->partial.latency_hist.count(),
            st.partial.latency_hist.count());
  EXPECT_EQ(loaded->partial.latency_hist.min(), st.partial.latency_hist.min());
  EXPECT_EQ(loaded->partial.latency_hist.max(), st.partial.latency_hist.max());
  EXPECT_EQ(loaded->partial.latency_hist.sum(), st.partial.latency_hist.sum());
  EXPECT_EQ(loaded->sent, st.sent);
  ASSERT_EQ(loaded->streams.size(), 2u);
  EXPECT_EQ(loaded->streams["udp:10.1.0.1"], st.streams["udp:10.1.0.1"]);
  EXPECT_EQ(loaded->streams["tcp:10.1.0.2"].origin_offset,
            fault::FaultStream::kNoOrigin);
  ASSERT_EQ(loaded->pending.size(), 1u);
  EXPECT_EQ(loaded->pending[0].record.trace_time, 77 * kSecond);
  EXPECT_EQ(loaded->pending[0].record.querier, 3u);
  EXPECT_EQ(loaded->pending[0].record.retries, 1u);
  EXPECT_EQ(loaded->pending[0].record.source.to_string(), "10.1.0.2");
  EXPECT_EQ(loaded->pending[0].transport, Transport::Tcp);
  EXPECT_EQ(loaded->pending[0].retries_used, 1u);
  EXPECT_EQ(loaded->pending[0].payload, st.pending[0].payload);
  std::remove(path.c_str());
}

TEST(CheckpointT, LoaderRejectsDamagedFiles) {
  EXPECT_FALSE(load_checkpoint("/nonexistent/ldp.ckpt").ok());

  std::string path = temp_path("ldp_ckpt_damaged_");
  {
    std::ofstream os(path);
    os << "not a checkpoint\n";
  }
  auto bad_magic = load_checkpoint(path);
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_NE(bad_magic.error().message.find("magic"), std::string::npos);

  {
    std::ofstream os(path);
    os << "ldp-checkpoint v1\ntrace 1 2\n";  // killed mid-write: no end marker
  }
  auto truncated = load_checkpoint(path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.error().message.find("truncated"), std::string::npos);

  {
    std::ofstream os(path);
    os << "ldp-checkpoint v1\nfrobnicate 1\nend\n";
  }
  auto unknown = load_checkpoint(path);
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().message.find("frobnicate"), std::string::npos);

  {
    std::ofstream os(path);
    os << "ldp-checkpoint v1\npending notanip udp 0 0 0 0 -\nend\n";
  }
  EXPECT_FALSE(load_checkpoint(path).ok());

  // A stream origin offset is `none` or an integer, never silently 0.
  {
    std::ofstream os(path);
    os << "ldp-checkpoint v1\nstream udp:10.0.0.1 3 0 12abc\nend\n";
  }
  auto bad_offset = load_checkpoint(path);
  ASSERT_FALSE(bad_offset.ok());
  EXPECT_NE(bad_offset.error().message.find("origin offset"), std::string::npos);

  // A histogram sum that does not parse.
  {
    std::ofstream os(path);
    os << "ldp-checkpoint v1\nhist 1 5 5 notanumber\nend\n";
  }
  auto bad_sum = load_checkpoint(path);
  ASSERT_FALSE(bad_sum.ok());
  EXPECT_NE(bad_sum.error().message.find("histogram sum"), std::string::npos);

  // A file in the old positional counter layout is refused on its first
  // counter line, by name.
  {
    std::ofstream os(path);
    os << "ldp-checkpoint v1\ntrace 1 2\ncounters 1 2 3 4 5 6 7 8 9 10 11\nend\n";
  }
  auto positional = load_checkpoint(path);
  ASSERT_FALSE(positional.ok());
  EXPECT_NE(positional.error().message.find("'counters'"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointT, TraceFingerprintSeparatesTraces) {
  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 10 * kMilli;
  spec.duration_ns = 200 * kMilli;
  spec.client_count = 4;
  auto a = synth::make_fixed_trace(spec);
  EXPECT_EQ(trace_fingerprint(a), trace_fingerprint(a));
  spec.client_count = 5;
  auto b = synth::make_fixed_trace(spec);
  EXPECT_NE(trace_fingerprint(a), trace_fingerprint(b));
}

// --- supervision: stall detection and recovery ------------------------------

// A querier wedged mid-replay (querier_stall fault injection) must not hang
// the run: the supervisor reaps it, its sources move to the sibling, and
// every query still reaches a terminal outcome.
TEST(SelfHealingT, StalledQuerierIsRecoveredWithNothingLost) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok()) << bg.error().message;

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 5 * kMilli;
  spec.duration_ns = 2 * kSecond;  // 400 queries
  spec.client_count = 10;
  auto trace = synth::make_fixed_trace(spec);

  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 2;
  cfg.supervise = true;
  cfg.heartbeat_timeout = 300 * kMilli;
  cfg.supervision_interval = 50 * kMilli;
  cfg.drain_grace = kSecond;
  fault::FaultSpec fs;
  fs.stall_querier = 0;
  fs.stall_after = 50 * kMilli;
  cfg.fault = fs;

  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  EXPECT_EQ(report->querier_failures, 1u);
  EXPECT_GE(report->sources_reassigned, 1u);
  // Conservation: every trace record was either sent or shed-with-
  // accounting, and nothing is left dangling without a verdict.
  EXPECT_EQ(report->queries_sent + report->shed_queries, trace.size());
  for (const auto& sr : report->sends)
    EXPECT_NE(sr.outcome, QueryOutcome::Pending);
  // The healthy majority of the replay still got answered.
  EXPECT_GT(report->responses_received, trace.size() / 2);
}

// Querier ids are numbered engine-wide, so querier_stall:0 wedges exactly
// one querier however many shards there are, and no id is reused by a
// second shard.
TEST(SelfHealingT, StallWedgesExactlyOneQuerierAcrossShards) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok()) << bg.error().message;

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 5 * kMilli;
  spec.duration_ns = 2 * kSecond;  // 400 queries
  spec.client_count = 10;
  auto trace = synth::make_fixed_trace(spec);

  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.shards = 2;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 2;
  cfg.supervise = true;
  cfg.heartbeat_timeout = 300 * kMilli;
  cfg.supervision_interval = 50 * kMilli;
  cfg.drain_grace = kSecond;
  fault::FaultSpec fs;
  fs.stall_querier = 0;
  fs.stall_after = 500 * kMilli;  // querier 0 sends for a while first
  cfg.fault = fs;

  auto report = QueryEngine(cfg).replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  EXPECT_EQ(report->querier_failures, 1u);
  EXPECT_GE(report->sources_reassigned, 1u);
  EXPECT_EQ(report->queries_sent + report->shed_queries, trace.size());

  // Every querier sent, under its own id, for sources of one shard only
  // (the engine's shards are the slices partition_by_source computes).
  auto slices = dist::partition_by_source(trace, cfg.shards);
  std::map<std::string, size_t> shard_of;
  for (size_t i = 0; i < slices.size(); ++i)
    for (const auto& rec : slices[i]) shard_of[rec.src.addr.to_string()] = i;
  std::map<uint32_t, std::set<size_t>> shards_of_querier;
  for (const auto& sr : report->sends)
    shards_of_querier[sr.querier].insert(shard_of.at(sr.source.to_string()));
  EXPECT_EQ(shards_of_querier.size(), 4u);
  for (const auto& [id, shards] : shards_of_querier)
    EXPECT_EQ(shards.size(), 1u) << "querier " << id << " spans shards";
}

// Supervision off: the same stall spec is inert (nothing would recover the
// thread, so the engine must not arm the trap).
TEST(SelfHealingT, StallInjectionIsDisabledWithoutSupervision) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok()) << bg.error().message;

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 2 * kMilli;
  spec.duration_ns = 100 * kMilli;
  spec.client_count = 4;
  auto trace = synth::make_fixed_trace(spec);

  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.supervise = false;
  fault::FaultSpec fs;
  fs.stall_querier = 0;
  cfg.fault = fs;

  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report->querier_failures, 0u);
  EXPECT_EQ(report->queries_sent, trace.size());
}

// --- querier send schedule and input handoff --------------------------------

// A timed querier keeps its not-yet-due records in one deadline-ordered
// schedule. Records that arrive out of trace order must still leave in
// deadline order, FIFO among equal deadlines, and never early.
TEST(ScheduleT, OutOfOrderAndEqualTimestampsLeaveInDeadlineOrder) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok()) << bg.error().message;

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = kMilli;
  spec.duration_ns = 8 * kMilli;
  spec.client_count = 8;  // one source per record, so sends are traceable
  auto trace = synth::make_fixed_trace(spec);
  ASSERT_EQ(trace.size(), 8u);
  // Trace offsets in ms, in arrival order. The first record anchors the
  // clock; the others sit well past the engine's startup lead, so they are
  // still in the future when the querier files them.
  const TimeNs offsets_ms[8] = {0, 800, 600, 600, 800, 700, 600, 0};
  for (size_t i = 0; i < trace.size(); ++i)
    trace[i].timestamp = offsets_ms[i] * kMilli;
  const size_t expected_order[8] = {0, 7, 2, 3, 6, 5, 1, 4};

  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;  // one querier: sends is its send order
  cfg.timed = true;
  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  ASSERT_EQ(report->sends.size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    const TraceRecord& want = trace[expected_order[i]];
    EXPECT_EQ(report->sends[i].source, want.src.addr) << "send " << i;
    EXPECT_EQ(report->sends[i].trace_time, want.timestamp) << "send " << i;
    EXPECT_GE(report->sends[i].send_time, report->replay_start + want.timestamp)
        << "send " << i << " left early";
  }
  EXPECT_EQ(report->responses_received, trace.size());
}

// One querier behind an 8-slot queue: the controller blocks on a full
// queue over and over, so every push/wake handoff is exercised thousands
// of times. A lost wake-up leaves the controller blocked and the querier
// asleep, and the replay never finishes.
void stress_handoff(bool timed) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok()) << bg.error().message;

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 50 * kMilli / 1000;  // 20k q/s when timed
  spec.duration_ns = kSecond;                 // 20000 queries
  spec.client_count = 16;
  auto trace = synth::make_fixed_trace(spec);
  ASSERT_EQ(trace.size(), 20000u);

  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.queue_capacity = 8;
  cfg.timed = timed;
  cfg.max_retries = 0;
  cfg.query_timeout = 200 * kMilli;
  cfg.drain_grace = kSecond;
  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report->queries_sent, trace.size());
  EXPECT_EQ(report->shed_queries, 0u);
  // A fast querier sends as it pops, so the controller surely outruns it.
  if (!timed) {
    EXPECT_EQ(report->queue_hwm, 8u);
  }
}

TEST(HandoffT, TinyQueueFastReplaySendsEveryRecord) { stress_handoff(false); }

TEST(HandoffT, TinyQueueTimedReplaySendsEveryRecord) { stress_handoff(true); }

// --- overload shedding ------------------------------------------------------

// A consumer that never drains (stalled at t=0) saturates its tiny queue;
// DropOldest must keep the pipeline moving and account every shed record.
// By the time supervision recovers the wedged querier the flood is long
// over, so what reaches the books is the shedding ledger.
TEST(SelfHealingT, DropOldestShedsInsteadOfStalling) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok()) << bg.error().message;

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = kMilli;
  spec.duration_ns = 400 * kMilli;  // 400 queries
  spec.client_count = 1;            // single source -> single sticky querier
  auto trace = synth::make_fixed_trace(spec);

  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 2;
  cfg.timed = false;  // flood the queue as fast as possible
  cfg.queue_capacity = 8;
  cfg.overload = OverloadPolicy::DropOldest;
  cfg.shed_grace = kMilli;
  cfg.supervise = true;
  cfg.heartbeat_timeout = kSecond;  // recovery lands well after the flood
  cfg.supervision_interval = 50 * kMilli;
  cfg.drain_grace = 200 * kMilli;
  fault::FaultSpec fs;
  fs.stall_querier = 0;  // the sticky target wedges immediately
  cfg.fault = fs;

  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  EXPECT_GT(report->shed_queries, 0u);
  EXPECT_EQ(report->queries_sent + report->shed_queries, trace.size());
  // The tiny queue really did hit its ceiling.
  EXPECT_EQ(report->queue_hwm, 8u);
}

// --- deterministic checkpoint/resume ----------------------------------------

// The acceptance experiment, in-process: replay a trace with impairments
// end-to-end (run A); then replay only its first half with a checkpoint
// file, and resume the full trace from that checkpoint (run B1 + B2). The
// resumed books must equal the uninterrupted ones exactly: queries sent,
// impairment counters, lifecycle counters.
//
// Timing is serialized per source (each query resolves — answered, or
// dropped+retried+expired — before the next one is due), so the per-source
// fault-stream draw order is identical in every run.
TEST(SelfHealingT, ResumedReplayMatchesUninterruptedRun) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok()) << bg.error().message;

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 120 * kMilli;
  spec.duration_ns = 2400 * kMilli;  // 20 queries
  spec.client_count = 1;
  auto full = synth::make_fixed_trace(spec);
  ASSERT_EQ(full.size(), 20u);
  std::vector<TraceRecord> prefix(full.begin(), full.begin() + 10);

  EngineConfig base;
  base.server = (*bg)->endpoint();
  base.distributors = 1;
  base.queriers_per_distributor = 2;
  base.timed = true;
  base.query_timeout = 50 * kMilli;   // resolve well inside the 120ms gap
  base.max_retries = 1;
  base.retry_backoff_cap = 50 * kMilli;
  base.drain_grace = 300 * kMilli;
  fault::FaultSpec fs;
  fs.drop = 0.3;
  fs.seed = 42;
  base.fault = fs;

  // Run A: never interrupted.
  EngineReport uninterrupted;
  {
    QueryEngine engine(base);
    auto r = engine.replay(full);
    ASSERT_TRUE(r.ok()) << r.error().message;
    uninterrupted = std::move(*r);
  }
  ASSERT_EQ(uninterrupted.queries_sent, full.size());
  ASSERT_GT(uninterrupted.impairments.dropped, 0u);  // the fault really bites

  // Run B1: first half only, checkpointing; the final quiescent snapshot
  // is what resume continues from (cut exactly at the inter-burst gap).
  std::string ckpt = temp_path("ldp_ckpt_resume_");
  {
    EngineConfig cfg = base;
    cfg.checkpoint_path = ckpt;
    cfg.checkpoint_interval = 100 * kMilli;
    QueryEngine engine(cfg);
    auto r = engine.replay(prefix);
    ASSERT_TRUE(r.ok()) << r.error().message;
  }
  // Resume validates the trace identity: the checkpoint was cut against
  // the prefix, so resuming the full trace needs the prefix's fingerprint
  // rewritten — which is exactly what a kill mid-way through `full` would
  // have produced. Patch the hash the way the real flow (same trace file
  // on both runs) gets it for free.
  auto cut = load_checkpoint(ckpt);
  ASSERT_TRUE(cut.ok()) << cut.error().message;
  ASSERT_EQ(cut->partial.queries_sent, prefix.size());
  cut->trace_hash = trace_fingerprint(full);

  // Run B2: resume the full trace from the cut.
  EngineReport resumed;
  {
    EngineConfig cfg = base;
    cfg.resume = &*cut;
    QueryEngine engine(cfg);
    auto r = engine.replay(full);
    ASSERT_TRUE(r.ok()) << r.error().message;
    resumed = std::move(*r);
  }

  // Exact equality of the books, as the ISSUE acceptance demands.
  EXPECT_EQ(resumed.queries_sent, uninterrupted.queries_sent);
  EXPECT_TRUE(resumed.impairments == uninterrupted.impairments)
      << "resumed: " << resumed.impairments.summary()
      << "\nuninterrupted: " << uninterrupted.impairments.summary();
  EXPECT_EQ(resumed.lifecycle.timeouts, uninterrupted.lifecycle.timeouts);
  EXPECT_EQ(resumed.lifecycle.retries, uninterrupted.lifecycle.retries);
  EXPECT_EQ(resumed.lifecycle.expired, uninterrupted.lifecycle.expired);
  EXPECT_EQ(resumed.lifecycle.answered_after_retry,
            uninterrupted.lifecycle.answered_after_retry);
  EXPECT_EQ(resumed.responses_received, uninterrupted.responses_received);
  EXPECT_EQ(resumed.latency_hist.count(), uninterrupted.latency_hist.count());
  EXPECT_TRUE(uninterrupted.conserved());
  EXPECT_TRUE(resumed.conserved());
  std::remove(ckpt.c_str());
}

// Resume against the wrong trace must refuse, not silently replay garbage.
TEST(SelfHealingT, ResumeRejectsAForeignTrace) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok()) << bg.error().message;

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 10 * kMilli;
  spec.duration_ns = 100 * kMilli;
  spec.client_count = 2;
  auto trace = synth::make_fixed_trace(spec);

  CheckpointState cut;
  cut.trace_hash = 0x1234;  // not this trace
  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.resume = &cut;
  QueryEngine engine(cfg);
  auto r = engine.replay(trace);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("different trace"), std::string::npos);
}

}  // namespace
}  // namespace ldp::replay

// Distributed-replay regression suite (`ctest -L dist` / check_dist): the
// control protocol codecs and FrameReader, the shared source partition,
// multi-process replay through real forked ldp-worker processes (counters,
// kill -9 → respawn → resume exactness, respawn-budget exhaustion and the
// in-process fallback, drift correction with a deliberately skewed worker
// clock), and the lifted sharded-checkpoint restriction (per-shard files,
// merged resume). Also what the tsan-dist preset runs under ThreadSanitizer.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "replay/checkpoint.hpp"
#include "replay/dist/controller.hpp"
#include "replay/dist/protocol.hpp"
#include "replay/engine.hpp"
#include "server/background.hpp"
#include "synth/generator.hpp"
#include "trace/binary.hpp"
#include "zone/parser.hpp"

#ifndef LDP_WORKER_BIN
#error "LDP_WORKER_BIN must point at the built ldp-worker executable"
#endif

namespace ldp {
namespace {

using replay::dist::AssignMsg;
using replay::dist::BarrierMsg;
using replay::dist::Frame;
using replay::dist::FrameReader;
using replay::dist::FrameType;
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

std::vector<TraceRecord> small_trace(TimeNs gap = 5 * kMilli,
                                     TimeNs duration = 2 * kSecond,
                                     size_t clients = 12) {
  synth::FixedTraceSpec spec;
  spec.interarrival_ns = gap;
  spec.duration_ns = duration;
  spec.client_count = clients;
  spec.seed = 7;
  return synth::make_fixed_trace(spec);
}

/// Write `trace` to a unique .ldpb under /tmp and return the path.
std::string write_trace(const std::vector<TraceRecord>& trace,
                        const char* tag) {
  std::string path = "/tmp/ldp_dist_test_" + std::string(tag) + "_" +
                     std::to_string(::getpid()) + ".ldpb";
  trace::BinaryWriter w;
  for (const auto& rec : trace) w.add(rec);
  EXPECT_TRUE(w.save(path).ok());
  return path;
}

replay::dist::DistConfig base_config(const Endpoint& server,
                                     const std::string& trace_path) {
  replay::dist::DistConfig cfg;
  cfg.workers = 2;
  cfg.worker_bin = LDP_WORKER_BIN;
  cfg.trace_path = trace_path;
  cfg.server = server;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.heartbeat_interval = 100 * kMilli;
  cfg.checkpoint_interval = 200 * kMilli;
  cfg.start_lead = 400 * kMilli;
  return cfg;
}

// --- protocol codecs -------------------------------------------------------

TEST(DistProtocol, HelloAssignStartRoundTrip) {
  replay::dist::HelloMsg hello;
  hello.worker = 3;
  hello.pid = 4242;
  auto h = replay::dist::parse_hello(replay::dist::encode_hello(hello));
  ASSERT_TRUE(h.ok()) << h.error().message;
  EXPECT_EQ(h->version, replay::dist::kProtocolVersion);
  EXPECT_EQ(h->worker, 3);
  EXPECT_EQ(h->pid, 4242);

  AssignMsg assign;
  assign.index = 2;
  assign.count = 4;
  assign.server = Endpoint{IpAddr{Ip4{127, 0, 0, 1}}, 5353};
  assign.timed = false;
  assign.batched_io = false;
  assign.distributors = 3;
  assign.queriers = 5;
  assign.heartbeat_interval = 123 * kMilli;
  assign.checkpoint_interval = 456 * kMilli;
  assign.fault_spec = "loss:0.05,seed:42";
  assign.resume = "ldp-checkpoint v1\nmulti\nline blob\nend\n";
  auto a = replay::dist::parse_assign(replay::dist::encode_assign(assign));
  ASSERT_TRUE(a.ok()) << a.error().message;
  EXPECT_EQ(a->index, 2u);
  EXPECT_EQ(a->count, 4u);
  EXPECT_EQ(a->server.to_string(), "127.0.0.1:5353");
  EXPECT_FALSE(a->timed);
  EXPECT_FALSE(a->batched_io);
  EXPECT_EQ(a->distributors, 3u);
  EXPECT_EQ(a->queriers, 5u);
  EXPECT_EQ(a->heartbeat_interval, 123 * kMilli);
  EXPECT_EQ(a->checkpoint_interval, 456 * kMilli);
  EXPECT_EQ(a->fault_spec, "loss:0.05,seed:42");
  EXPECT_EQ(a->resume, assign.resume);  // blob survives verbatim

  // A fresh assignment carries no resume blob and no fault spec.
  assign.resume.clear();
  assign.fault_spec.clear();
  auto a2 = replay::dist::parse_assign(replay::dist::encode_assign(assign));
  ASSERT_TRUE(a2.ok());
  EXPECT_TRUE(a2->resume.empty());
  EXPECT_TRUE(a2->fault_spec.empty());

  // Out-of-range slice indices are a parse error, not a crash later.
  assign.index = 9;
  EXPECT_FALSE(
      replay::dist::parse_assign(replay::dist::encode_assign(assign)).ok());

  replay::dist::StartMsg start;
  start.trace_origin = 123456789;
  start.start_at = 987654321;
  start.offset = -250 * kMilli;
  auto s = replay::dist::parse_start(replay::dist::encode_start(start));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->trace_origin, start.trace_origin);
  EXPECT_EQ(s->start_at, start.start_at);
  EXPECT_EQ(s->offset, start.offset);
}

TEST(DistProtocol, BarrierKindsRoundTrip) {
  for (auto kind : {BarrierMsg::Kind::Ready, BarrierMsg::Kind::Probe,
                    BarrierMsg::Kind::Echo}) {
    BarrierMsg m{kind, 7, 111, kind == BarrierMsg::Kind::Echo ? 222 : 0};
    auto r = replay::dist::parse_barrier(replay::dist::encode_barrier(m));
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_EQ(r->kind, kind);
    if (kind != BarrierMsg::Kind::Ready) {
      EXPECT_EQ(r->seq, 7u);
      EXPECT_EQ(r->t_ctrl, 111);
    }
    if (kind == BarrierMsg::Kind::Echo) {
      EXPECT_EQ(r->t_worker, 222);
    }
  }
  EXPECT_FALSE(replay::dist::parse_barrier("frobnicate 1 2").ok());
}

TEST(DistProtocol, ReportRoundTripPreservesCountersAndSends) {
  replay::EngineReport r;
  r.queries_sent = 100;
  r.responses_received = 93;
  r.send_errors = 2;
  r.connections_opened = 5;
  r.max_in_flight = 17;
  r.worker_crashes = 1;
  r.workers_respawned = 1;
  r.max_drift_ns = 150 * kMilli;
  r.lifecycle.timeouts = 4;
  r.lifecycle.retries = 3;
  r.impairments.dropped = 7;
  r.replay_start = 1000000;
  r.replay_end = 9000000;
  r.latency_hist.add(2 * kMilli);
  r.latency_hist.add(5 * kMilli);
  replay::SendRecord sr;
  sr.trace_time = 42;
  sr.send_time = 1000042;
  sr.latency = 300000;
  sr.source = IpAddr{Ip4{10, 0, 0, 9}};
  sr.querier = 2;
  sr.retries = 1;
  sr.outcome = replay::QueryOutcome::Answered;
  r.sends.push_back(sr);

  auto back = replay::dist::parse_report(replay::dist::encode_report(r));
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back->queries_sent, r.queries_sent);
  EXPECT_EQ(back->responses_received, r.responses_received);
  EXPECT_EQ(back->send_errors, r.send_errors);
  EXPECT_EQ(back->connections_opened, r.connections_opened);
  EXPECT_EQ(back->max_in_flight, r.max_in_flight);
  EXPECT_EQ(back->worker_crashes, r.worker_crashes);
  EXPECT_EQ(back->workers_respawned, r.workers_respawned);
  EXPECT_EQ(back->max_drift_ns, r.max_drift_ns);
  EXPECT_EQ(back->lifecycle.timeouts, r.lifecycle.timeouts);
  EXPECT_EQ(back->lifecycle.retries, r.lifecycle.retries);
  EXPECT_EQ(back->impairments.dropped, r.impairments.dropped);
  EXPECT_EQ(back->replay_start, r.replay_start);
  EXPECT_EQ(back->replay_end, r.replay_end);
  EXPECT_EQ(back->latency_hist.count(), r.latency_hist.count());
  ASSERT_EQ(back->sends.size(), 1u);
  EXPECT_EQ(back->sends[0].trace_time, sr.trace_time);
  EXPECT_EQ(back->sends[0].send_time, sr.send_time);
  EXPECT_EQ(back->sends[0].latency, sr.latency);
  EXPECT_EQ(back->sends[0].source, sr.source);
  EXPECT_EQ(back->sends[0].querier, sr.querier);
  EXPECT_EQ(back->sends[0].retries, sr.retries);
  EXPECT_EQ(back->sends[0].outcome, sr.outcome);

  EXPECT_FALSE(replay::dist::parse_report("not a report").ok());

  // A send outcome outside QueryOutcome is refused, not cast blindly.
  std::string text = replay::dist::encode_report(r);
  size_t eol = text.find('\n', text.find("\nsend ") + 1);
  text[eol - 1] = '7';
  auto bad_outcome = replay::dist::parse_report(text);
  ASSERT_FALSE(bad_outcome.ok());
  EXPECT_NE(bad_outcome.error().message.find("outcome"), std::string::npos);
}

// Driven by EngineReport::fields itself, so a counter declared there is
// covered here with no test change: each counter, set to its own value,
// survives the worker REPORT and the checkpoint, merge_from folds it by
// its declared kind, and a text missing it (or naming a counter this build
// does not declare) is refused with the name in the error.
TEST(DistProtocol, EveryDeclaredCounterRoundTripsAndMerges) {
  using replay::EngineReport;
  auto set_each = [](EngineReport& rep, uint64_t scale) {
    uint64_t i = 0;
    EngineReport::fields(
        [&](const char*, metrics::Merge, auto& v) {
          v = static_cast<std::remove_reference_t<decltype(v)>>(++i * scale);
        },
        rep);
  };
  EngineReport r;
  set_each(r, 7);
  r.latency_hist.add(3 * kMilli);
  r.latency_hist.add(40 * kMilli);
  std::vector<std::string> names;
  EngineReport::fields([&](const char* name, metrics::Merge) {
    for (const auto& seen : names) EXPECT_NE(seen, name) << "declared twice";
    names.push_back(name);
  });
  EXPECT_GE(names.size(), 33u);

  auto expect_same = [&](const EngineReport& back, const char* via) {
    EngineReport::fields(
        [&](const char* name, metrics::Merge, const auto& want,
            const auto& got) { EXPECT_EQ(got, want) << name << " via " << via; },
        r, back);
    EXPECT_EQ(back.latency_hist.count(), r.latency_hist.count()) << via;
    EXPECT_EQ(back.latency_hist.sum(), r.latency_hist.sum()) << via;
    EXPECT_EQ(back.latency_hist.max(), r.latency_hist.max()) << via;
  };
  std::string report_text = replay::dist::encode_report(r);
  auto report = replay::dist::parse_report(report_text);
  ASSERT_TRUE(report.ok()) << report.error().message;
  expect_same(*report, "REPORT");
  replay::CheckpointState st;
  st.partial = r;
  std::string ckpt_text = replay::serialize_checkpoint(st);
  auto ckpt = replay::parse_checkpoint(ckpt_text);
  ASSERT_TRUE(ckpt.ok()) << ckpt.error().message;
  expect_same(ckpt->partial, "checkpoint");

  EngineReport b;
  set_each(b, 1);
  EngineReport merged = r;
  EngineReport b_copy = b;
  merged.merge_from(std::move(b_copy));
  EngineReport::fields(
      [](const char* name, metrics::Merge kind, const auto& got,
         const auto& x, const auto& y) {
        EXPECT_EQ(got, kind == metrics::Merge::Sum ? x + y : std::max(x, y))
            << name;
      },
      merged, r, b);

  auto expect_skew_refused = [&](const std::string& text, auto parse) {
    for (const auto& name : names) {
      std::string cut = text;
      size_t at = cut.find("\ncounter " + name + " ");
      ASSERT_NE(at, std::string::npos) << name;
      cut.erase(at, cut.find('\n', at + 1) - at);
      auto missing = parse(cut);
      ASSERT_FALSE(missing.ok()) << name;
      EXPECT_NE(missing.error().message.find("missing counter '" + name + "'"),
                std::string::npos)
          << missing.error().message;
    }
    std::string extra = text;
    extra.insert(extra.find('\n') + 1, "counter no_such_counter 1\n");
    auto unknown = parse(extra);
    ASSERT_FALSE(unknown.ok());
    EXPECT_NE(unknown.error().message.find("unknown counter 'no_such_counter'"),
              std::string::npos)
        << unknown.error().message;
  };
  expect_skew_refused(report_text, replay::dist::parse_report);
  expect_skew_refused(ckpt_text, replay::parse_checkpoint);
}

// --- FrameReader -----------------------------------------------------------

TEST(DistProtocol, FrameReaderReassemblesByteByByte) {
  // Build two frames on the wire: len | type | payload.
  auto wire_frame = [](FrameType t, const std::string& payload) {
    std::string out;
    uint32_t len = static_cast<uint32_t>(payload.size()) + 1;
    for (int shift = 24; shift >= 0; shift -= 8)
      out.push_back(static_cast<char>((len >> shift) & 0xff));
    out.push_back(static_cast<char>(t));
    out += payload;
    return out;
  };
  std::string wire = wire_frame(FrameType::Heartbeat, "12345\n") +
                     wire_frame(FrameType::Checkpoint, std::string(7000, 'x'));

  FrameReader reader;
  std::vector<Frame> got;
  for (char c : wire) {
    reader.feed(reinterpret_cast<const uint8_t*>(&c), 1);
    while (true) {
      auto f = reader.next();
      ASSERT_TRUE(f.ok()) << f.error().message;
      if (!f->has_value()) break;
      got.push_back(std::move(**f));
    }
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type, FrameType::Heartbeat);
  EXPECT_EQ(got[0].payload, "12345\n");
  EXPECT_EQ(got[1].type, FrameType::Checkpoint);
  EXPECT_EQ(got[1].payload.size(), 7000u);
}

TEST(DistProtocol, FrameReaderRejectsOversizedAndEmptyFrames) {
  // Oversized: length prefix claims more than kMaxFramePayload.
  uint8_t big[5] = {0xff, 0xff, 0xff, 0xff, 1};
  FrameReader reader;
  reader.feed(big, sizeof(big));
  EXPECT_FALSE(reader.next().ok());

  // Zero length can't even hold the type byte.
  uint8_t zero[4] = {0, 0, 0, 0};
  FrameReader reader2;
  reader2.feed(zero, sizeof(zero));
  EXPECT_FALSE(reader2.next().ok());
}

// --- the shared partition --------------------------------------------------

TEST(DistPartition, StickyDeterministicAndComplete) {
  auto trace = small_trace();
  auto slices = replay::dist::partition_by_source(trace, 3);
  ASSERT_EQ(slices.size(), 3u);

  size_t total = 0;
  std::unordered_map<IpAddr, size_t, IpAddrHash> owner;
  for (size_t i = 0; i < slices.size(); ++i) {
    total += slices[i].size();
    for (const auto& rec : slices[i]) {
      auto [it, fresh] = owner.emplace(rec.src.addr, i);
      EXPECT_EQ(it->second, i) << "source split across slices";
      (void)fresh;
    }
  }
  EXPECT_EQ(total, trace.size());  // every query record lands exactly once

  // Deterministic: worker and controller compute the same partition
  // independently, so a second call must agree slice by slice.
  auto again = replay::dist::partition_by_source(trace, 3);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(again[i].size(), slices[i].size());
    for (size_t j = 0; j < slices[i].size(); ++j)
      EXPECT_EQ(again[i][j].timestamp, slices[i][j].timestamp);
  }

  // More workers than sources: the tail slices are empty, nothing is lost.
  auto wide = replay::dist::partition_by_source(trace, 40);
  size_t wide_total = 0;
  for (const auto& s : wide) wide_total += s.size();
  EXPECT_EQ(wide_total, trace.size());
}

// --- multi-process replay --------------------------------------------------

class DistReplay : public ::testing::Test {
 protected:
  void SetUp() override {
    auto bg = server::BackgroundServer::start(wildcard_server());
    ASSERT_TRUE(bg.ok()) << bg.error().message;
    server_ = std::move(*bg);
  }
  std::unique_ptr<server::BackgroundServer> server_;
};

TEST_F(DistReplay, TwoWorkersReplayEverythingOnce) {
  auto trace = small_trace();
  auto path = write_trace(trace, "two");
  auto cfg = base_config(server_->endpoint(), path);
  auto dr = replay::dist::run_distributed(cfg);
  ASSERT_TRUE(dr.ok()) << dr.error().message;
  EXPECT_EQ(dr->report.queries_sent, trace.size());
  EXPECT_EQ(dr->report.responses_received, trace.size());
  EXPECT_EQ(dr->report.worker_crashes, 0u);
  EXPECT_EQ(dr->report.workers_respawned, 0u);
  EXPECT_TRUE(dr->report.conserved());
  ASSERT_EQ(dr->workers.size(), 2u);
  EXPECT_TRUE(dr->any_misalign);
  // Same host, same clock: the barrier start lands within scheduling noise.
  EXPECT_LT(dr->max_abs_misalign, 50 * kMilli);
  std::remove(path.c_str());
}

TEST_F(DistReplay, KillNineRespawnsAndResumesWithExactCounters) {
  auto trace = small_trace();
  auto path = write_trace(trace, "kill");
  auto cfg = base_config(server_->endpoint(), path);

  auto clean = replay::dist::run_distributed(cfg);
  ASSERT_TRUE(clean.ok()) << clean.error().message;

  // SIGKILL worker 1 at 0.9 s — past several 200 ms checkpoints — and let
  // supervision respawn it from the shipped snapshot.
  cfg.kill_worker = 1;
  cfg.kill_after = 900 * kMilli;
  auto killed = replay::dist::run_distributed(cfg);
  ASSERT_TRUE(killed.ok()) << killed.error().message;

  EXPECT_EQ(killed->report.worker_crashes, 1u);
  EXPECT_EQ(killed->report.workers_respawned, 1u);
  EXPECT_EQ(killed->workers[1].crashes, 1u);
  // The exactness contract: nothing lost, nothing double-counted.
  EXPECT_EQ(killed->report.queries_sent, clean->report.queries_sent);
  EXPECT_EQ(killed->report.queries_sent, trace.size());
  EXPECT_EQ(killed->report.responses_received,
            clean->report.responses_received);
  EXPECT_TRUE(clean->report.conserved());
  EXPECT_TRUE(killed->report.conserved());
  std::remove(path.c_str());
}

TEST_F(DistReplay, ExhaustedRespawnBudgetFallsBackInProcess) {
  auto trace = small_trace();
  auto path = write_trace(trace, "budget");
  auto cfg = base_config(server_->endpoint(), path);
  cfg.respawn_budget = 0;  // first crash exhausts the budget
  cfg.kill_worker = 0;
  cfg.kill_after = 900 * kMilli;
  auto dr = replay::dist::run_distributed(cfg);
  ASSERT_TRUE(dr.ok()) << dr.error().message;
  EXPECT_EQ(dr->report.worker_crashes, 1u);
  EXPECT_EQ(dr->report.workers_respawned, 0u);
  EXPECT_TRUE(dr->workers[0].fallback);
  // The controller replayed the dead slice itself, from the last shipped
  // checkpoint: totals still exact.
  EXPECT_EQ(dr->report.queries_sent, trace.size());
  EXPECT_EQ(dr->report.responses_received, trace.size());
  std::remove(path.c_str());
}

TEST_F(DistReplay, DriftCorrectionAlignsASkewedWorkerClock) {
  auto trace = small_trace(5 * kMilli, kSecond, 8);
  auto path = write_trace(trace, "drift");
  auto cfg = base_config(server_->endpoint(), path);
  // Worker 1 believes its clock reads 150 ms ahead of the controller's.
  cfg.worker_skew = {0, 150 * kMilli};

  auto corrected = replay::dist::run_distributed(cfg);
  ASSERT_TRUE(corrected.ok()) << corrected.error().message;
  // The probe rounds must actually see the skew...
  EXPECT_GT(corrected->report.max_drift_ns, 100 * kMilli);
  EXPECT_LT(corrected->report.max_drift_ns, 200 * kMilli);
  // ...and the corrected start instant cancels it: both workers fire
  // within scheduling noise of the barrier.
  EXPECT_TRUE(corrected->any_misalign);
  EXPECT_LT(corrected->max_abs_misalign, 50 * kMilli);

  // Regression guard: with correction disabled the skewed worker starts a
  // full skew early — the failure mode the correction exists to prevent.
  cfg.correct_drift = false;
  auto uncorrected = replay::dist::run_distributed(cfg);
  ASSERT_TRUE(uncorrected.ok()) << uncorrected.error().message;
  EXPECT_GT(uncorrected->max_abs_misalign, 100 * kMilli);
  EXPECT_LT(uncorrected->max_abs_misalign, 250 * kMilli);
  std::remove(path.c_str());
}

// --- sharded checkpoints (the lifted engine restriction) -------------------

class ShardedCheckpoint : public ::testing::Test {
 protected:
  void SetUp() override {
    auto bg = server::BackgroundServer::start(wildcard_server());
    ASSERT_TRUE(bg.ok()) << bg.error().message;
    server_ = std::move(*bg);
  }

  // Timed pacing: an untimed blast overruns socket buffers and loses
  // responses nondeterministically, which would break the
  // resume-vs-uninterrupted exact-equality assertions below.
  replay::EngineConfig engine_config(size_t shards) {
    replay::EngineConfig cfg;
    cfg.server = server_->endpoint();
    cfg.shards = shards;
    cfg.distributors = 1;
    cfg.queriers_per_distributor = 1;
    cfg.drain_grace = 2 * kSecond;
    return cfg;
  }

  std::unique_ptr<server::BackgroundServer> server_;
};

TEST_F(ShardedCheckpoint, PerShardFilesWrittenAndResumeMatchesUninterrupted) {
  auto trace = small_trace();
  const std::string ckpt =
      "/tmp/ldp_dist_test_shardckpt_" + std::to_string(::getpid());

  auto uninterrupted =
      replay::QueryEngine(engine_config(4)).replay(trace);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.error().message;
  EXPECT_EQ(uninterrupted->queries_sent, trace.size());

  // Sharded + checkpointing — the combination the engine used to refuse.
  auto cfg = engine_config(4);
  cfg.checkpoint_path = ckpt;
  auto checkpointed = replay::QueryEngine(cfg).replay(trace);
  ASSERT_TRUE(checkpointed.ok()) << checkpointed.error().message;
  EXPECT_EQ(checkpointed->queries_sent, uninterrupted->queries_sent);

  // Four per-shard files, each a parsable snapshot of a *different* slice.
  auto states = replay::load_sharded_checkpoints(ckpt, 4);
  ASSERT_TRUE(states.ok()) << states.error().message;
  ASSERT_EQ(states->size(), 4u);
  uint64_t from_shards = 0;
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NE((*states)[i].trace_hash, 0u) << "shard " << i;
    from_shards += (*states)[i].partial.queries_sent;
    for (size_t j = i + 1; j < 4; ++j)
      EXPECT_NE((*states)[i].trace_hash, (*states)[j].trace_hash);
  }
  EXPECT_EQ(from_shards, trace.size());

  // Resuming from the complete snapshots replays nothing and reproduces
  // the uninterrupted totals exactly.
  auto resume_cfg = engine_config(4);
  resume_cfg.resume_shards = &*states;
  auto resumed = replay::QueryEngine(resume_cfg).replay(trace);
  ASSERT_TRUE(resumed.ok()) << resumed.error().message;
  EXPECT_EQ(resumed->queries_sent, uninterrupted->queries_sent);
  EXPECT_EQ(resumed->responses_received, uninterrupted->responses_received);
  EXPECT_TRUE(uninterrupted->conserved());
  EXPECT_TRUE(checkpointed->conserved());
  EXPECT_TRUE(resumed->conserved());

  // A shard that died before its first snapshot (missing file) comes back
  // default-constructed and replays its slice from the start; totals are
  // still exact.
  ASSERT_EQ(std::remove(replay::shard_checkpoint_path(ckpt, 2).c_str()), 0);
  auto partial = replay::load_sharded_checkpoints(ckpt, 4);
  ASSERT_TRUE(partial.ok()) << partial.error().message;
  EXPECT_EQ((*partial)[2].trace_hash, 0u);
  auto resume2_cfg = engine_config(4);
  resume2_cfg.resume_shards = &*partial;
  auto resumed2 = replay::QueryEngine(resume2_cfg).replay(trace);
  ASSERT_TRUE(resumed2.ok()) << resumed2.error().message;
  EXPECT_EQ(resumed2->queries_sent, uninterrupted->queries_sent);
  EXPECT_EQ(resumed2->responses_received, uninterrupted->responses_received);
  EXPECT_TRUE(resumed2->conserved());

  for (size_t i = 0; i < 4; ++i)
    std::remove(replay::shard_checkpoint_path(ckpt, i).c_str());
}

TEST_F(ShardedCheckpoint, RemainingInvalidCombinationsStayErrors) {
  auto trace = small_trace(5 * kMilli, 200 * kMilli, 4);

  // A single whole-trace resume state cannot drive a sharded run.
  replay::CheckpointState single;
  single.trace_hash = 1;
  auto cfg = engine_config(2);
  cfg.resume = &single;
  auto r = replay::QueryEngine(cfg).replay(trace);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("resume_shards"), std::string::npos);

  // resume_shards must match the shard count...
  std::vector<replay::CheckpointState> two(3);
  auto cfg2 = engine_config(2);
  cfg2.resume_shards = &two;
  ASSERT_FALSE(replay::QueryEngine(cfg2).replay(trace).ok());

  // ...and the in-memory sink stays single-shard only.
  auto cfg3 = engine_config(2);
  cfg3.checkpoint_sink = [](const replay::CheckpointState&) {};
  auto r3 = replay::QueryEngine(cfg3).replay(trace);
  ASSERT_FALSE(r3.ok());
  EXPECT_NE(r3.error().message.find("checkpoint_sink"), std::string::npos);

  // No shard file at all means there is nothing to resume.
  EXPECT_FALSE(
      replay::load_sharded_checkpoints("/tmp/ldp_dist_no_such_ckpt", 2).ok());
}

}  // namespace
}  // namespace ldp

// ldp-replay: the query engine as a command-line tool.
//
//   ldp-replay [options] <trace.pcap|trace.txt|trace.ldpb> <server-ip> <port>
//
// One controller (this process's main thread) feeds every querier thread;
// distributors and shards are groups of queriers, not threads. A run uses
// shards × distributors × queriers querier threads.
//
//   --fast                 ignore trace timing, replay as fast as possible
//   --distributors N       querier groups per shard, each with its own
//                          sticky source map and failover (default 1)
//   --queriers N           querier threads per distributor (default 2)
//   --shards N             split sources over N shards, each checkpointing
//                          its own slice, on one replay clock (1-64)
//   --workers N            distributed mode: fork N ldp-worker processes,
//                          barrier-synchronize their start, supervise and
//                          respawn crashed workers from their checkpoints
//   --worker-bin PATH      ldp-worker executable (default: next to ldp-replay)
//   --respawn N            respawns per worker before the controller takes
//                          the slice over in-process (default 2)
//   --kill-worker I        test knob: SIGKILL worker I once mid-replay
//   --kill-after S         seconds past the barrier start for --kill-worker
//   --transport udp|tcp|tls  override every query's transport (§5.2 what-if)
//   --dnssec               set the DO bit on every query (§5.1 what-if)
//   --prefix LABEL         prepend LABEL to every qname (replay matching)
//   --scale F              multiply inter-arrival gaps by F (0.5 = 2x rate)
//   --fault SPEC           impair the query path, e.g.
//                          loss:0.05,reorder:0.01,seed:42 (see ldp::fault)
//   --checkpoint FILE      periodically snapshot replay state to FILE
//   --checkpoint-interval S  seconds between snapshots (default 1)
//   --resume               continue from the --checkpoint file instead of
//                          starting over (counters carry across the kill)
//   --scalar-io            one syscall per UDP datagram instead of the
//                          batched sendmmsg/recvmmsg hot path (A/B runs)
//   --overload block|drop-oldest|clamp  full-queue policy (default block)
//   --shed-grace MS        how long a push waits before shedding (default 5)
//   --no-supervise         disable the heartbeat supervisor
//   --heartbeat-timeout S  declare a querier dead after S stale seconds
//
// Prints an EngineReport summary plus latency and timing-error quantiles,
// then exits 1 if some sent query has neither an answer nor an expiry
// (responses + expired != queries sent).
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "mutate/mutator.hpp"
#include "replay/checkpoint.hpp"
#include "replay/dist/controller.hpp"
#include "replay/engine.hpp"
#include "trace/load.hpp"
#include "util/stats.hpp"

using namespace ldp;

namespace {

/// Default --worker-bin: the ldp-worker sitting next to this executable.
std::string sibling_worker_bin() {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "ldp-worker";
  std::string self(buf, static_cast<size_t>(n));
  auto slash = self.rfind('/');
  if (slash == std::string::npos) return "ldp-worker";
  return self.substr(0, slash + 1) + "ldp-worker";
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--fast] [--distributors N] [--queriers N] [--shards N]\n"
               "          [--workers N [--worker-bin PATH] [--respawn N]\n"
               "           [--kill-worker I] [--kill-after S]]\n"
               "          [--transport udp|tcp|tls] [--dnssec] [--prefix LABEL]\n"
               "          [--scale F] [--fault SPEC] [--scalar-io]\n"
               "          [--checkpoint FILE [--checkpoint-interval S] [--resume]]\n"
               "          [--overload block|drop-oldest|clamp] [--shed-grace MS]\n"
               "          [--no-supervise] [--heartbeat-timeout S]\n"
               "          <trace.{pcap,txt,ldpb}> <server-ip> <port>\n"
               "  one controller feeds shards x distributors x queriers querier\n"
               "  threads; a distributor is a group of queriers, a shard is the\n"
               "  groups that checkpoint to one <file>.shardN\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  replay::EngineConfig cfg;
  mutate::MutatorPipeline mutator;
  bool has_mutations = false;
  bool resume = false;
  size_t workers = 0;  // 0 = single-process mode
  replay::dist::DistConfig dist;
  std::string fault_spec_raw;  // forwarded verbatim to dist workers

  int arg = 1;
  for (; arg < argc && std::strncmp(argv[arg], "--", 2) == 0; ++arg) {
    std::string opt = argv[arg];
    auto need_value = [&]() -> const char* {
      if (arg + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", opt.c_str());
        std::exit(2);
      }
      return argv[++arg];
    };
    if (opt == "--fast") {
      cfg.timed = false;
    } else if (opt == "--distributors") {
      cfg.distributors = std::strtoul(need_value(), nullptr, 10);
    } else if (opt == "--queriers") {
      cfg.queriers_per_distributor = std::strtoul(need_value(), nullptr, 10);
    } else if (opt == "--shards") {
      // Strict, same spelling as ldp-server: plain digits, 1..64.
      std::string v = need_value();
      if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
        std::fprintf(stderr, "--shards wants a plain integer, got '%s'\n",
                     v.c_str());
        return 2;
      }
      unsigned long n = std::strtoul(v.c_str(), nullptr, 10);
      if (n < 1 || n > 64) {
        std::fprintf(stderr, "--shards must be between 1 and 64, got %s\n",
                     v.c_str());
        return 2;
      }
      cfg.shards = n;
    } else if (opt == "--workers") {
      // Same strict spelling as --shards: plain digits, 1..64.
      std::string v = need_value();
      if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
        std::fprintf(stderr, "--workers wants a plain integer, got '%s'\n",
                     v.c_str());
        return 2;
      }
      unsigned long n = std::strtoul(v.c_str(), nullptr, 10);
      if (n < 1 || n > 64) {
        std::fprintf(stderr, "--workers must be between 1 and 64, got %s\n",
                     v.c_str());
        return 2;
      }
      workers = n;
    } else if (opt == "--worker-bin") {
      dist.worker_bin = need_value();
    } else if (opt == "--respawn") {
      std::string v = need_value();
      if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
        std::fprintf(stderr, "--respawn wants a plain integer, got '%s'\n",
                     v.c_str());
        return 2;
      }
      dist.respawn_budget = static_cast<uint32_t>(
          std::strtoul(v.c_str(), nullptr, 10));
    } else if (opt == "--kill-worker") {
      dist.kill_worker = std::strtol(need_value(), nullptr, 10);
    } else if (opt == "--kill-after") {
      dist.kill_after =
          static_cast<TimeNs>(std::strtod(need_value(), nullptr) * kSecond);
    } else if (opt == "--transport") {
      auto t = transport_from_string(need_value());
      if (!t.ok()) {
        std::fprintf(stderr, "%s\n", t.error().message.c_str());
        return 2;
      }
      mutator.force_transport(*t);
      has_mutations = true;
    } else if (opt == "--dnssec") {
      mutator.enable_dnssec(4096);
      has_mutations = true;
    } else if (opt == "--prefix") {
      mutator.prefix_qnames(need_value());
      has_mutations = true;
    } else if (opt == "--scale") {
      mutator.scale_time(std::strtod(need_value(), nullptr));
      has_mutations = true;
    } else if (opt == "--fault") {
      fault_spec_raw = need_value();
      auto spec = fault::parse_fault_spec(fault_spec_raw);
      if (!spec.ok()) {
        std::fprintf(stderr, "bad --fault spec: %s\n", spec.error().message.c_str());
        return 2;
      }
      cfg.fault = *spec;
    } else if (opt == "--scalar-io") {
      cfg.batched_io = false;
    } else if (opt == "--checkpoint") {
      cfg.checkpoint_path = need_value();
    } else if (opt == "--checkpoint-interval") {
      cfg.checkpoint_interval =
          static_cast<TimeNs>(std::strtod(need_value(), nullptr) * kSecond);
    } else if (opt == "--resume") {
      resume = true;
    } else if (opt == "--overload") {
      std::string policy = need_value();
      if (policy == "block") {
        cfg.overload = replay::OverloadPolicy::Block;
      } else if (policy == "drop-oldest") {
        cfg.overload = replay::OverloadPolicy::DropOldest;
      } else if (policy == "clamp") {
        cfg.overload = replay::OverloadPolicy::ClampRate;
      } else {
        std::fprintf(stderr, "unknown --overload policy: %s\n", policy.c_str());
        return 2;
      }
    } else if (opt == "--shed-grace") {
      cfg.shed_grace =
          static_cast<TimeNs>(std::strtod(need_value(), nullptr) * kMilli);
    } else if (opt == "--no-supervise") {
      cfg.supervise = false;
    } else if (opt == "--heartbeat-timeout") {
      cfg.heartbeat_timeout =
          static_cast<TimeNs>(std::strtod(need_value(), nullptr) * kSecond);
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (argc - arg != 3) {
    usage(argv[0]);
    return 2;
  }

  auto records = trace::load_trace_file(argv[arg]);
  if (!records.ok()) {
    std::fprintf(stderr, "trace load failed: %s\n", records.error().message.c_str());
    return 1;
  }
  auto server_ip = IpAddr::parse(argv[arg + 1]);
  if (!server_ip.ok()) {
    std::fprintf(stderr, "%s\n", server_ip.error().message.c_str());
    return 2;
  }
  cfg.server = Endpoint{*server_ip, static_cast<uint16_t>(
                                        std::strtoul(argv[arg + 2], nullptr, 10))};

  if (workers > 0 && (has_mutations || cfg.shards > 1 ||
                      !cfg.checkpoint_path.empty() || resume)) {
    // Workers slice the trace themselves and own their checkpoints; live
    // mutation / sharding / file checkpoints belong to single-process mode.
    std::fprintf(stderr,
                 "--workers is incompatible with mutator flags, --shards, "
                 "--checkpoint and --resume\n");
    return 2;
  }
  if (workers == 0 &&
      (dist.kill_worker >= 0 || !dist.worker_bin.empty())) {
    std::fprintf(stderr, "--worker-bin/--kill-worker need --workers N\n");
    return 2;
  }

  if (has_mutations) {
    size_t malformed = 0;
    *records = mutator.apply_all(std::move(*records), &malformed);
    if (malformed > 0)
      std::fprintf(stderr, "note: dropped %zu undecodable records\n", malformed);
  }
  replay::CheckpointState resume_state;
  std::vector<replay::CheckpointState> shard_states;
  if (resume) {
    if (cfg.checkpoint_path.empty()) {
      std::fprintf(stderr, "--resume needs --checkpoint FILE\n");
      return 2;
    }
    if (cfg.shards > 1) {
      auto loaded =
          replay::load_sharded_checkpoints(cfg.checkpoint_path, cfg.shards);
      if (!loaded.ok()) {
        std::fprintf(stderr, "resume failed: %s\n",
                     loaded.error().message.c_str());
        return 1;
      }
      shard_states = std::move(*loaded);
      cfg.resume_shards = &shard_states;
      unsigned long long sent = 0, in_flight = 0;
      for (const auto& st : shard_states) {
        sent += st.partial.queries_sent;
        in_flight += st.pending.size();
      }
      std::fprintf(stderr,
                   "resuming from %s.shard*: %llu queries already sent "
                   "across %zu shards, %llu in flight\n",
                   cfg.checkpoint_path.c_str(), sent, cfg.shards, in_flight);
    } else {
      auto loaded = replay::load_checkpoint(cfg.checkpoint_path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "resume failed: %s\n", loaded.error().message.c_str());
        return 1;
      }
      resume_state = std::move(*loaded);
      cfg.resume = &resume_state;
      std::fprintf(stderr,
                   "resuming from %s: %llu of %llu queries already sent, "
                   "%zu in flight\n",
                   cfg.checkpoint_path.c_str(),
                   static_cast<unsigned long long>(resume_state.partial.queries_sent),
                   static_cast<unsigned long long>(resume_state.trace_queries),
                   resume_state.pending.size());
    }
  }
  if (cfg.shards > 1)
    std::fprintf(stderr, "shards: %zu source-partitioned querier pools\n",
                 cfg.shards);
  if (workers > 0)
    std::fprintf(stderr, "workers: %zu replay processes\n", workers);
  std::fprintf(stderr, "replaying %zu queries to %s (%s mode)...\n", records->size(),
               cfg.server.to_string().c_str(), cfg.timed ? "timed" : "fast");

  replay::EngineReport rep;
  TimeNs max_abs_misalign = 0;
  bool any_misalign = false;
  if (workers > 0) {
    dist.workers = workers;
    if (dist.worker_bin.empty()) dist.worker_bin = sibling_worker_bin();
    dist.trace_path = argv[arg];
    dist.server = cfg.server;
    dist.timed = cfg.timed;
    dist.batched_io = cfg.batched_io;
    dist.distributors = cfg.distributors;
    dist.queriers_per_distributor = cfg.queriers_per_distributor;
    dist.fault_spec = fault_spec_raw;
    dist.checkpoint_interval = cfg.checkpoint_interval;
    auto dr = replay::dist::run_distributed(dist);
    if (!dr.ok()) {
      std::fprintf(stderr, "distributed replay failed: %s\n",
                   dr.error().message.c_str());
      return 1;
    }
    rep = std::move(dr->report);
    max_abs_misalign = dr->max_abs_misalign;
    any_misalign = dr->any_misalign;
  } else {
    replay::QueryEngine engine(cfg);
    auto report = engine.replay(*records);
    if (!report.ok()) {
      std::fprintf(stderr, "replay failed: %s\n", report.error().message.c_str());
      return 1;
    }
    rep = std::move(*report);
  }

  std::printf("queries sent:       %llu\n",
              static_cast<unsigned long long>(rep.queries_sent));
  std::printf("responses received: %llu (%.2f%%)\n",
              static_cast<unsigned long long>(rep.responses_received),
              rep.queries_sent > 0
                  ? 100.0 * static_cast<double>(rep.responses_received) /
                        static_cast<double>(rep.queries_sent)
                  : 0.0);
  std::printf("send errors:        %llu\n",
              static_cast<unsigned long long>(rep.send_errors));
  std::printf("connections opened: %llu\n",
              static_cast<unsigned long long>(rep.connections_opened));
  const auto& lc = rep.lifecycle;
  std::printf("timeouts:           %llu (retries %llu, answered after retry %llu)\n",
              static_cast<unsigned long long>(lc.timeouts),
              static_cast<unsigned long long>(lc.retries),
              static_cast<unsigned long long>(lc.answered_after_retry));
  std::printf("lost (expired):     %llu (abandoned at shutdown %llu)\n",
              static_cast<unsigned long long>(lc.expired),
              static_cast<unsigned long long>(lc.abandoned));
  if (lc.duplicate_ids + lc.tcp_reconnects + lc.unmatched_responses +
          lc.deferred_sends + lc.socket_errors >
      0) {
    std::printf(
        "anomalies:          dup-ids %llu  tcp-reconnects %llu  unmatched %llu"
        "  deferred-sends %llu  socket-errors %llu\n",
        static_cast<unsigned long long>(lc.duplicate_ids),
        static_cast<unsigned long long>(lc.tcp_reconnects),
        static_cast<unsigned long long>(lc.unmatched_responses),
        static_cast<unsigned long long>(lc.deferred_sends),
        static_cast<unsigned long long>(lc.socket_errors));
  }
  if (cfg.fault.has_value())
    std::printf("impairments:        %s\n", rep.impairments.summary().c_str());
  if (rep.querier_failures + rep.sources_reassigned +
          rep.shed_queries + rep.clamp_stall_ns + lc.adopted_resends >
      0) {
    std::printf(
        "self-healing:       querier-failures %llu  sources-reassigned %llu"
        "  adopted-resends %llu  shed %llu  clamp-stall %.3f s\n",
        static_cast<unsigned long long>(rep.querier_failures),
        static_cast<unsigned long long>(rep.sources_reassigned),
        static_cast<unsigned long long>(lc.adopted_resends),
        static_cast<unsigned long long>(rep.shed_queries),
        ns_to_sec(static_cast<TimeNs>(rep.clamp_stall_ns)));
  }
  std::printf("queue high water:   %llu\n",
              static_cast<unsigned long long>(rep.queue_hwm));
  std::printf("max in flight:      %llu\n",
              static_cast<unsigned long long>(rep.max_in_flight));
  if (workers > 0) {
    std::printf("worker crashes:     %llu (respawned %llu)\n",
                static_cast<unsigned long long>(rep.worker_crashes),
                static_cast<unsigned long long>(rep.workers_respawned));
    std::printf("max clock drift:    %.3f ms\n",
                static_cast<double>(rep.max_drift_ns) / 1e6);
    if (any_misalign)
      std::printf("start misalign:     %.3f ms max\n",
                  static_cast<double>(max_abs_misalign) / 1e6);
  }
  std::printf("duration:           %.3f s (%.0f q/s)\n", rep.duration_s(),
              rep.rate_qps());
  if (!rep.latency_hist.empty())
    std::printf("latency histogram:  %s\n", rep.latency_hist.summary_ms().c_str());

  Sampler latency_ms, error_ms;
  TimeNs t0 = records->front().timestamp;
  for (const auto& sr : rep.sends) {
    if (sr.latency >= 0) latency_ms.add(ns_to_ms(sr.latency));
    error_ms.add(ns_to_ms((sr.send_time - rep.replay_start) -
                          (sr.trace_time - t0)));
  }
  if (!latency_ms.empty()) {
    auto l = latency_ms.summary();
    std::printf("latency ms:         median %.2f  q1 %.2f  q3 %.2f  p95 %.2f\n",
                l.median, l.q1, l.q3, l.p95);
  }
  if (cfg.timed) {
    auto e = error_ms.summary();
    std::printf("timing error ms:    median %.2f  q1 %.2f  q3 %.2f  min %.2f  max %.2f\n",
                e.median, e.q1, e.q3, e.min, e.max);
  }
  if (!rep.conserved()) {
    std::fprintf(stderr,
                 "conservation violated: responses %llu + expired %llu != "
                 "queries sent %llu\n",
                 static_cast<unsigned long long>(rep.responses_received),
                 static_cast<unsigned long long>(lc.expired),
                 static_cast<unsigned long long>(rep.queries_sent));
    return 1;
  }
  return 0;
}

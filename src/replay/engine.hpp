// The query engine (§2.6, §3): one controller (Reader + Postman) feeds
// every querier, same-source sticky at every level so connection reuse can
// be emulated faithfully.
//
// The controller is the calling thread. It picks each record's shard by the
// record's trace source, mutates the record once, then picks a distributor
// group within the shard and a querier within the group — all by the
// shared first-appearance rule (partition.hpp) — and pushes the record
// straight onto that querier's queue under the overload policy. In timed
// mode it hands a record off only within kControllerLookahead of its
// deadline, so what waits in the queriers is a window of the trace, not
// the rest of it. Distributors and shards own no thread:
// a distributor is a group of queriers with its own sticky map, liveness
// and recovery; a shard is the set of groups that checkpoint to one file.
// A replay runs shards × distributors × queriers querier threads plus at
// most one supervisor thread.
//
// Substitution note (DESIGN.md): the paper runs distributors/queriers as
// processes on separate client hosts connected by TCP; here queriers are
// threads fed through bounded queues, and the multi-host split is
// `--workers` processes (src/replay/dist/). The query path itself — the
// part whose timing the evaluation validates — uses real UDP/TCP sockets
// against a real server endpoint, and the §2.6 scheduling math runs
// unchanged.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "fault/fault.hpp"
#include "mutate/mutator.hpp"
#include "net/event_loop.hpp"
#include "net/impaired.hpp"
#include "net/socket.hpp"
#include "replay/pending.hpp"
#include "replay/schedule.hpp"
#include "trace/record.hpp"
#include "util/metrics.hpp"
#include "util/queue.hpp"
#include "util/stats.hpp"

namespace ldp::replay {

struct CheckpointState;  // checkpoint.hpp (engine.cpp includes it)

/// What the controller does when a querier queue stays full past the grace
/// period (a stalled or overloaded consumer). Block preserves every query
/// at the cost of stalling the controller clock; the shedding policies
/// keep the clock honest and account for what they cost.
enum class OverloadPolicy : uint8_t {
  Block = 0,      ///< wait forever (back-pressure; recovery unblocks via close)
  DropOldest = 1, ///< evict the oldest queued record, counted as shed
  ClampRate = 2,  ///< keep blocking but account the stall time
};

/// Timed replay: the controller hands a record to its querier no earlier
/// than this before the record's deadline, so querier schedules hold this
/// window of the trace instead of everything not yet sent. A trace out of
/// time order widens the window by its largest disorder (how far a record
/// trails an earlier one), so no record waits behind a later one. Fast
/// mode, and records a resume skips, are not paced.
inline constexpr TimeNs kControllerLookahead = 50 * kMilli;

struct EngineConfig {
  Endpoint server;            ///< where replayed queries go
  size_t distributors = 1;
  size_t queriers_per_distributor = 2;
  /// Sharded querier pool: the controller splits sources over this many
  /// shards (sticky — a source never spans shards, so connection reuse and
  /// same-source ordering hold). A shard owns no thread: it is its own
  /// distributors × queriers, checkpointed together, and every shard runs
  /// on one replay clock, one controller and one supervisor.
  /// The per-source fault-draw schedule is a function of the seed alone
  /// ("udp:<src>"/"tcp:<src>" stream names), so fixed-seed impairment
  /// counters are identical at any shard count. Querier ids are numbered
  /// engine-wide. With checkpoint_path set, each shard snapshots its own
  /// slice to `<path>.shard<N>`; resume takes the matching per-shard
  /// states via `resume_shards`.
  size_t shards = 1;
  /// Timed replay reproduces trace timing; fast mode sends as fast as
  /// possible (§2.6 "replay as fast as possible" option, Figure 9).
  bool timed = true;
  /// Client-side close for idle TCP/TLS connections (§2.6: "queriers also
  /// track open TCP connections ... close them after a pre-set timeout").
  TimeNs tcp_idle_timeout = 20 * kSecond;
  /// Stop waiting for outstanding responses this long after the last send.
  TimeNs drain_grace = 2 * kSecond;
  /// Query lifecycle (PendingTable): a query unanswered after this long is
  /// retransmitted (UDP) or resent (TCP), with the wait doubling per
  /// attempt up to retry_backoff_cap; once max_retries attempts are spent
  /// the entry expires and leaves the pending table, so long replays never
  /// accumulate unanswered state. max_retries = 0 keeps the timeout/expiry
  /// accounting but never retransmits.
  TimeNs query_timeout = kSecond;
  uint32_t max_retries = 2;
  TimeNs retry_backoff_cap = 8 * kSecond;
  /// Re-establish a TCP connection that dropped with unanswered queries
  /// still pending, resending them (each resend consumes one retry from the
  /// affected queries), at most this many times per source.
  bool tcp_reconnect = true;
  uint32_t max_tcp_reconnects = 2;
  size_t queue_capacity = 4096;
  /// Batched UDP I/O: queries staged during one event-loop round leave in a
  /// single sendmmsg per socket (flushed before the loop blocks), and
  /// responses drain via recvmmsg. Post-send accounting replicates the
  /// scalar path exactly, so fixed-seed runs report identical counters
  /// either way. Off = one syscall per datagram (kept for A/B measurement
  /// and the scalar/batched equivalence tests).
  bool batched_io = true;
  /// Live query mutation (§2.2: "query mutator can run live with query
  /// replay"): applied by the controller to each record before dispatch.
  /// The pipeline must outlive the replay. Records the mutator drops or
  /// cannot decode are skipped and counted.
  const mutate::MutatorPipeline* live_mutator = nullptr;
  /// Network impairment scenario (ldp::fault) applied to the query path:
  /// every per-source socket / connection sends through its own named
  /// FaultStream ("udp:<src>" / "tcp:<src>"), so the impairment pattern a
  /// source sees is a function of the seed alone — identical regardless of
  /// how sources are spread over queriers or controllers. nullopt = clean
  /// link.
  std::optional<fault::FaultSpec> fault;
  /// Self-healing layer: a supervisor thread watches querier heartbeats
  /// and recovers a stalled querier (reassigning its sources to a sibling
  /// in its distributor group and resending its in-flight queries).
  /// Disabling supervision also disables querier_stall fault injection
  /// (nothing would recover the stalled thread).
  bool supervise = true;
  TimeNs heartbeat_timeout = 5 * kSecond;
  TimeNs supervision_interval = 500 * kMilli;
  /// Overload shedding for the controller→querier queues: how long a push
  /// may wait before the policy kicks in.
  OverloadPolicy overload = OverloadPolicy::Block;
  TimeNs shed_grace = 5 * kMilli;
  /// Deterministic checkpoint/resume: when `checkpoint_path` is set, the
  /// supervisor periodically snapshots per-source trace positions, fault
  /// stream draw positions and in-flight queries to the file (atomically,
  /// tmp+rename), and a final quiescent snapshot is written when the
  /// replay completes. `resume` replays only what the checkpoint hasn't
  /// sent and folds the checkpoint's counters into the final report; it
  /// must outlive the replay() call.
  std::string checkpoint_path;
  TimeNs checkpoint_interval = kSecond;
  const CheckpointState* resume = nullptr;
  /// Per-shard resume states for shards > 1 (size must equal `shards`,
  /// same partition as the run that wrote them — the per-slice trace
  /// fingerprints catch a mismatched shard count). A default-constructed
  /// entry (trace_hash 0) means that shard never snapshot and replays its
  /// slice from the start. Mutually exclusive with `resume`.
  const std::vector<CheckpointState>* resume_shards = nullptr;
  /// In-memory checkpoint consumer: called with each periodic snapshot (and
  /// the final quiescent one) in addition to — or instead of — the file at
  /// checkpoint_path. The distributed worker wires this to CHECKPOINT
  /// control frames so the controller always holds a fresh resume point.
  /// Runs on the supervisor thread; must be cheap and must not call back
  /// into the engine. Only valid with shards == 1 (a per-shard sink would
  /// interleave unrelated slices).
  std::function<void(const CheckpointState&)> checkpoint_sink;

  /// True when any checkpoint consumer is configured — queriers then track
  /// snapshot state (per-source sent counts, stream positions, pending).
  bool checkpointing() const {
    return !checkpoint_path.empty() || checkpoint_sink != nullptr;
  }
};

/// One sent query, for the Figures 6-8 fidelity analysis.
struct SendRecord {
  TimeNs trace_time;   ///< original timestamp (ns, trace timeline)
  TimeNs send_time;    ///< actual send (ns, monotonic timeline)
  TimeNs latency = -1; ///< response latency from first send; -1 if unanswered
  IpAddr source;       ///< original trace source (per-source fault analysis)
  uint32_t querier = 0;
  uint32_t retries = 0;  ///< retransmits this query needed
  QueryOutcome outcome = QueryOutcome::Pending;
};

struct EngineReport {
  std::vector<SendRecord> sends;  ///< in send order per querier, merged
  uint64_t queries_sent = 0;
  uint64_t responses_received = 0;
  uint64_t send_errors = 0;
  uint64_t connections_opened = 0;
  uint64_t mutator_dropped = 0;  ///< records removed by the live mutator
  /// Peak number of simultaneously in-flight queries in any one querier;
  /// bounded by the expiry window, so long replays with loss stay flat.
  uint64_t max_in_flight = 0;
  // Self-healing layer accounting.
  uint64_t querier_failures = 0;    ///< queriers declared dead and recovered
  uint64_t sources_reassigned = 0;  ///< sticky sources moved to a sibling
  uint64_t shed_queries = 0;        ///< records dropped by overload shedding
  uint64_t queue_hwm = 0;           ///< deepest any worker queue ever got
  uint64_t clamp_stall_ns = 0;      ///< time ClampRate spent blocked on full queues
  // Distributed-replay accounting (src/replay/dist/): processes, not threads.
  uint64_t worker_crashes = 0;      ///< worker processes that died mid-replay
  uint64_t workers_respawned = 0;   ///< crashes answered with a respawn+resume
  int64_t max_drift_ns = 0;         ///< largest |worker-clock offset| measured
  metrics::LifecycleCounters lifecycle;  ///< timeout/retry/expiry accounting
  fault::ImpairmentCounters impairments; ///< what the fault layer did to us
  metrics::Histogram latency_hist;       ///< answered-query latency (ns)
  TimeNs replay_start = 0;  ///< monotonic t₁
  TimeNs replay_end = 0;

  double duration_s() const { return ns_to_sec(replay_end - replay_start); }
  double rate_qps() const {
    double d = duration_s();
    return d > 0 ? static_cast<double>(queries_sent) / d : 0;
  }
  /// Queries that never produced an answer (timed out, errored, abandoned).
  uint64_t lost() const { return lifecycle.expired; }
  /// Every sent query reached a terminal outcome: answered or expired.
  bool conserved() const {
    return responses_received + lifecycle.expired == queries_sent;
  }

  /// The one list of this report's counters, the lifecycle and impairment
  /// bundles included (see LifecycleCounters::fields). Merge, checkpoint
  /// and the worker REPORT all walk it; the span, the histogram and the
  /// send records are handled on their own.
  template <class F, class... R>
  static void fields(F&& f, R&... r) {
    f("queries_sent", metrics::Merge::Sum, r.queries_sent...);
    f("responses_received", metrics::Merge::Sum, r.responses_received...);
    f("send_errors", metrics::Merge::Sum, r.send_errors...);
    f("connections_opened", metrics::Merge::Sum, r.connections_opened...);
    f("mutator_dropped", metrics::Merge::Sum, r.mutator_dropped...);
    f("max_in_flight", metrics::Merge::Max, r.max_in_flight...);
    f("querier_failures", metrics::Merge::Sum, r.querier_failures...);
    f("sources_reassigned", metrics::Merge::Sum, r.sources_reassigned...);
    f("shed_queries", metrics::Merge::Sum, r.shed_queries...);
    f("queue_hwm", metrics::Merge::Max, r.queue_hwm...);
    f("clamp_stall_ns", metrics::Merge::Sum, r.clamp_stall_ns...);
    f("worker_crashes", metrics::Merge::Sum, r.worker_crashes...);
    f("workers_respawned", metrics::Merge::Sum, r.workers_respawned...);
    f("max_drift_ns", metrics::Merge::Max, r.max_drift_ns...);
    metrics::LifecycleCounters::fields(f, r.lifecycle...);
    fault::ImpairmentCounters::fields(f, r.impairments...);
  }

  /// Fold another report (one querier's, one distributor group's, one
  /// worker's) into this one: counters merge by their declared kind,
  /// histograms merge, send records append, and replay_start/replay_end
  /// widen to cover both.
  void merge_from(EngineReport&& other);
};

class QueryEngine {
 public:
  explicit QueryEngine(EngineConfig config);
  ~QueryEngine();

  /// Replay a time-ordered query trace; blocks until every query is sent
  /// and responses have drained (or the grace period lapses).
  ///
  /// `shared_clock` lets several processes replay slices of one trace on a
  /// common timeline (a `--workers` worker latches the fleet's barrier
  /// start); it must already be started. Pass nullptr to let this engine
  /// latch its own synchronization point.
  Result<EngineReport> replay(const std::vector<trace::TraceRecord>& trace,
                              const ReplayClock* shared_clock = nullptr);

 private:
  class Querier;
  class Distributor;
  struct Shard;

  EngineConfig config_;
};

}  // namespace ldp::replay

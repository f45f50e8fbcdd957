#include "replay/engine.hpp"

#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>

#include "replay/checkpoint.hpp"
#include "replay/partition.hpp"
#include "replay/supervisor.hpp"
#include "util/log.hpp"

namespace ldp::replay {

using trace::TraceRecord;

namespace {
constexpr TimeNs kStartupLead = 100 * kMilli;  // let worker threads spin up
// Resend delay for queries that never reached the wire (kernel buffer
// full): short, so the backlog clears as soon as the kernel drains.
constexpr TimeNs kDeferredSendDelay = 10 * kMilli;
// Pause before a lost TCP connection's replacement sends, doubling per
// reconnect, so the budget outlasts a short outage instead of burning out
// in microseconds against a link that is still down.
constexpr TimeNs kReconnectPause = 10 * kMilli;

/// How far the trace's query records run out of time order: the largest
/// gap by which a record trails the latest timestamp before it (0 for a
/// time-ordered trace).
TimeNs trace_disorder(const std::vector<TraceRecord>& trace) {
  TimeNs latest = trace.front().timestamp;
  TimeNs disorder = 0;
  for (const auto& rec : trace) {
    if (rec.direction != trace::Direction::Query) continue;
    latest = std::max(latest, rec.timestamp);
    disorder = std::max(disorder, latest - rec.timestamp);
  }
  return disorder;
}

/// Block the controller until `deadline` is within `window`. A record
/// further out sleeps it until the deadline is half a lookahead closer than
/// that, so each wake hands off about kControllerLookahead / 2 of trace
/// time: bursts small enough that the queriers still send on time.
void wait_for_lookahead(TimeNs deadline, TimeNs window) {
  if (deadline - mono_now_ns() <= window) return;
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::nanoseconds(deadline - window + kControllerLookahead / 2))));
}

uint16_t dns_id_of(std::span<const uint8_t> wire) {
  return wire.size() >= 2 ? static_cast<uint16_t>(wire[0] << 8 | wire[1]) : 0;
}

/// Give a send that is still pending its terminal outcome, counted expired
/// in `report`. False if it already had one.
bool expire_pending(SendRecord& sr, QueryOutcome outcome, EngineReport& report) {
  if (sr.outcome != QueryOutcome::Pending) return false;
  sr.outcome = outcome;
  ++report.lifecycle.expired;
  return true;
}
}  // namespace

void EngineReport::merge_from(EngineReport&& other) {
  metrics::merge_fields(*this, other);
  latency_hist.merge(other.latency_hist);
  replay_end = std::max(replay_end, other.replay_end);
  // A resumed run merges a checkpoint's counters whose timing fields are
  // meaningless in this process — only widen from reports that have one.
  if (other.replay_start > 0 &&
      (replay_start == 0 || other.replay_start < replay_start))
    replay_start = other.replay_start;
  // Fast mode sends before the startup-lead origin; lower the start to the
  // first real send so duration/rate stay meaningful (timed sends are never
  // earlier than the origin, so this is a no-op there). send_time == 0 is
  // the not-yet-adopted sentinel on restored records — skip those.
  for (const auto& sr : other.sends) {
    if (sr.send_time > 0 && (replay_start == 0 || sr.send_time < replay_start))
      replay_start = sr.send_time;
  }
  // The first report merged in hands over its buffer: copying it would
  // briefly hold every send record of the replay twice.
  if (sends.empty()) {
    sends = std::move(other.sends);
  } else {
    sends.insert(sends.end(), other.sends.begin(), other.sends.end());
  }
}

namespace {

/// What one querier publishes for the checkpoint gatherer: a per-querier
/// consistent cut of its counters, in-flight queries, per-source sent
/// counts and fault-stream draw positions. Published by the querier thread
/// under a mutex; read by the supervisor thread.
struct QuerierSnapshot {
  bool valid = false;
  EngineReport partial;  ///< counters + histogram only, sends stay empty
  std::vector<CheckpointPending> pending;
  std::map<std::string, fault::FaultStream::Position> streams;
  std::map<std::string, uint64_t> sent;
};

}  // namespace

// ---------------------------------------------------------------------------
// Querier: one thread, one event loop, sockets pinned per query source.
// The controller pushes records onto its bounded input queue and writes
// its eventfd. Timed records not yet due wait in one deadline-ordered
// schedule behind a single timer armed at its head, which sends everything
// due and re-arms for the new head.
//
// Every in-flight query lives in exactly one PendingTable (per UDP socket /
// per TCP connection) from send until a terminal outcome: answered,
// timed-out after the retry budget, or errored. A single lifecycle timer,
// armed at the earliest deadline across tables, drives retransmits and
// expiry, so pending state is bounded by the retry window even when the
// server never answers.
//
// Supervision: the thread beats a heartbeat from an event-loop timer. A
// querier_stall fault injection parks the thread (cooperatively wedged: no
// beats, no processing); the supervisor then reaps it — harvesting its
// queue, schedule and pending tables while the thread is provably
// quiescent — and releases it. In-flight queries salvaged this way carry a
// pointer to their original send record (extern_rec), so the sibling that
// adopts them resolves outcomes in the failed querier's report; the
// engine joins every querier before merging any report, keeping those
// cross-report writes race-free.
// ---------------------------------------------------------------------------
class QueryEngine::Querier {
 public:
  Querier(uint32_t id, const EngineConfig& config, const ReplayClock& clock,
          const CheckpointState* resume)
      : id_(id),
        config_(config),
        clock_(clock),
        resume_(resume),
        queue_(config.queue_capacity) {
    wake_fd_ = net::Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    thread_ = std::thread([this] { run(); });
  }

  ~Querier() {
    if (thread_.joinable()) thread_.join();
  }

  uint32_t id() const { return id_; }
  BoundedQueue<TraceRecord>& queue() { return queue_; }
  Heartbeat& heartbeat() { return heartbeat_; }
  size_t queue_high_water() const { return queue_.high_water(); }

  void wake() {
    uint64_t one = 1;
    ssize_t r = ::write(wake_fd_.get(), &one, sizeof(one));
    (void)r;
  }

  void finish() {
    queue_.close();
    wake();
  }

  /// Hand over in-flight queries (a failed sibling's, or a checkpoint's).
  /// Every entry must carry extern_rec. Thread-safe; returns false — with
  /// `orphans` intact — once the querier stopped accepting (shutting down),
  /// so the caller can grave-yard them with accounting instead of losing
  /// them in a never-drained inbox.
  bool adopt(std::vector<PendingQuery>& orphans) {
    return hand_over(adopt_inbox_, orphans);
  }

  /// Hand over trace records a failed sibling never sent. This bypasses the
  /// input queue (already closed once routing finished) and rides the adopt
  /// inbox instead, which stays open for as long as the querier is still
  /// draining — so mid-drain recovery re-dispatches on the original
  /// schedule rather than shedding. Same contract as adopt(): false leaves
  /// `records` intact for the caller to account.
  bool adopt_records(std::vector<TraceRecord>& records) {
    return hand_over(record_inbox_, records);
  }

  /// Everything a reaped querier leaves behind: queries on the wire
  /// (resendable, with extern record pointers) and trace records it never
  /// got to send (re-dispatchable through the normal path).
  struct Salvage {
    std::vector<PendingQuery> pending;
    std::vector<TraceRecord> unsent;
  };

  /// Supervisor-thread half of the recovery handshake. Blocks until the
  /// thread is provably quiescent (parked after a stall, or finished);
  /// returns false if it finished normally (false alarm — nothing to
  /// recover). On true, the querier's state has been harvested into `out`
  /// and the caller must call release() to let the thread exit.
  bool reap(Salvage& out) {
    {
      std::unique_lock lock(life_mu_);
      life_cv_.wait(lock, [this] { return parked_ || finished_; });
      if (!parked_) return false;
    }
    // The thread is parked: it reads released_ under life_mu_ and touches
    // nothing else until release(). Safe to harvest from this thread.
    queue_.close();
    while (auto rec = queue_.pop_for(0)) out.unsent.push_back(std::move(*rec));
    {
      std::lock_guard lock(adopt_mu_);
      adopt_closed_ = true;
      for (auto& pq : adopt_inbox_) out.pending.push_back(std::move(pq));
      adopt_inbox_.clear();
      for (auto& rec : record_inbox_) out.unsent.push_back(std::move(rec));
      record_inbox_.clear();
    }
    for (auto& [source, us] : udp_socks_) {
      for (auto& pq : us->pending.drain()) out.pending.push_back(std::move(pq));
      // Sends staged for a flush that never came are in flight from the
      // trace's point of view: salvage them like any pending entry.
      for (auto& st : us->stage) out.pending.push_back(std::move(st.pq));
      us->stage.clear();
    }
    staged_count_ = 0;
    staged_socks_.clear();
    for (auto& [source, conn] : tcp_conns_)
      for (auto& pq : conn->pending.drain()) out.pending.push_back(std::move(pq));
    for (auto& item : schedule_) out.unsent.push_back(std::move(item.rec));
    schedule_.clear();
    // Point salvaged queries at their records in this report so the
    // adopter resolves them in place. sends never grows again (the thread
    // is parked), so the pointers stay stable until after all joins.
    for (auto& pq : out.pending)
      if (pq.extern_rec == nullptr) pq.extern_rec = &report_.sends[pq.send_index];
    return true;
  }

  void release() {
    std::lock_guard lock(life_mu_);
    released_ = true;
    life_cv_.notify_all();
  }

  QuerierSnapshot snapshot() const {
    std::lock_guard lock(snap_mu_);
    return snap_;
  }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

  EngineReport take_report() {
    join();
    return std::move(report_);
  }

 private:
  template <typename T>
  bool hand_over(std::vector<T>& inbox, std::vector<T>& items) {
    {
      std::lock_guard lock(adopt_mu_);
      if (adopt_closed_) return false;
      for (auto& item : items) inbox.push_back(std::move(item));
    }
    items.clear();
    wake();
    return true;
  }

  // Send modes: which post-send bookkeeping a send gets, the same whether
  // it leaves at once (scalar I/O) or with the round's sendmmsg (batched).
  static constexpr uint8_t kStageFresh = 0;  ///< send_query first attempt
  static constexpr uint8_t kStageAdopt = 1;  ///< adopt_pending resend
  static constexpr uint8_t kStageRetry = 2;  ///< lifecycle retransmit

  /// One UDP send and its mode. Under batched_io it waits here for the
  /// per-round sendmmsg flush: the pending query lives in the stage (not
  /// the table) until the flush resolves whether it reached the wire;
  /// staged_count_ keeps maybe_finish honest.
  struct StagedSend {
    PendingQuery pq;
    uint8_t mode;
    bool was_on_wire;  ///< kStageRetry only: wire_sent before this attempt
  };

  /// One event-loop timer kept at the earliest deadline handed to it.
  struct EarliestTimer {
    net::EventLoop::TimerId id = 0;  ///< 0 = not armed
    TimeNs deadline = 0;
  };

  struct UdpSock {
    std::unique_ptr<net::ImpairedUdpSocket> sock;
    PendingTable pending;
    // Batched-send staging: queries accumulated during one poll round,
    // flushed FIFO with one sendmmsg by the loop's flush hook.
    std::vector<StagedSend> stage;
  };

  struct TcpConn {
    net::TcpStream stream;
    bool connected = false;
    TimeNs last_activity = 0;
    uint32_t reconnects_used = 0;  // reconnect budget consumed for this source
    TimeNs reopen_at = 0;          // a reconnect holds its backlog until then
    std::vector<std::vector<uint8_t>> backlog;  // queued until connected
    PendingTable pending;
    // Per-source impairment stream (owned by the querier's stream map, so
    // the draw sequence survives reconnects).
    fault::FaultStream* fault = nullptr;
    // Slowloris injection (fault knob slow_client): a slow connection never
    // sends a whole frame — framed queries join drip_out and trickle one
    // byte per slow_drip interval, holding the server's reassembly buffer
    // open exactly like a hostile client would.
    bool slow = false;
    std::vector<uint8_t> drip_out;
    size_t drip_pos = 0;
    bool drip_armed = false;

    explicit TcpConn(net::TcpStream s) : stream(std::move(s)) {}
  };

  /// Resolve the send record a pending query belongs to: its own report
  /// entry, or — for adopted queries — the record in the failed querier's
  /// report / the resumed checkpoint's stable storage.
  SendRecord& record_of(PendingQuery& pq) {
    return pq.extern_rec != nullptr ? *pq.extern_rec
                                    : report_.sends[pq.send_index];
  }
  const SendRecord& record_of(const PendingQuery& pq) const {
    return pq.extern_rec != nullptr ? *pq.extern_rec
                                    : report_.sends[pq.send_index];
  }

  /// Per-source fault stream, created on first use; nullptr when the
  /// engine runs without an impairment scenario. The name is derived from
  /// the *original trace source*, not the querier, so the pattern a source
  /// sees is partition-independent (shard-count equivalence). On resume
  /// the stream fast-forwards to its checkpointed draw position.
  fault::FaultStream* fault_stream(const char* prefix, const IpAddr& source) {
    if (!config_.fault.has_value()) return nullptr;
    std::string name = std::string(prefix) + source.to_string();
    auto it = fault_streams_.find(name);
    if (it == fault_streams_.end()) {
      it = fault_streams_
               .emplace(name, std::make_unique<fault::FaultStream>(*config_.fault,
                                                                   name))
               .first;
      if (resume_ != nullptr) {
        auto rit = resume_->streams.find(name);
        if (rit != resume_->streams.end())
          it->second->restore(rit->second, clock_.real_origin());
      }
    }
    return it->second.get();
  }

  /// Cumulative queries sent for one source, lazily seeded from the
  /// shard's resume checkpoint so snapshots always carry whole-replay
  /// counts.
  uint64_t& sent_count_for(const IpAddr& source) {
    auto it = sent_per_source_.find(source);
    if (it == sent_per_source_.end()) {
      uint64_t base = 0;
      if (resume_ != nullptr) {
        auto rit = resume_->sent.find(source.to_string());
        if (rit != resume_->sent.end()) base = rit->second;
      }
      it = sent_per_source_.emplace(source, base).first;
    }
    return it->second;
  }

  void run() {
    auto add = loop_.add_fd(wake_fd_.get(), net::Interest{true, false},
                            [this](bool, bool) { on_wake(); });
    if (add.ok()) {
      if (config_.batched_io)
        loop_.add_flush_hook([this] { flush_all_udp(); });
      if (config_.supervise) {
        arm_heartbeat();
        if (config_.fault.has_value() &&
            config_.fault->stall_querier == static_cast<int64_t>(id_)) {
          loop_.add_timer_after(std::max<TimeNs>(config_.fault->stall_after, 0),
                                [this] {
                                  stalled_ = true;
                                  loop_.stop();
                                });
        }
      }
      if (config_.checkpointing()) arm_snapshot();
      loop_.run();
    }
    if (stalled_) park();
    finalize_report();
    {
      std::lock_guard lock(life_mu_);
      finished_ = true;
      life_cv_.notify_all();
    }
  }

  /// The cooperative stall: stop beating and processing, wait to be reaped
  /// and released. Parking only ever happens under supervision (the stall
  /// trap is gated on it), and the engine keeps the supervisor alive until
  /// every querier has joined, so the reap→release handshake is guaranteed
  /// to arrive — this wait cannot hang the shutdown.
  void park() {
    std::unique_lock lock(life_mu_);
    parked_ = true;
    life_cv_.notify_all();
    life_cv_.wait(lock, [this] { return released_; });
  }

  void arm_heartbeat() {
    heartbeat_.beat();
    TimeNs period = std::max<TimeNs>(
        kMilli,
        std::min(config_.supervision_interval, config_.heartbeat_timeout / 4));
    loop_.add_timer_after(period, [this] { arm_heartbeat(); });
  }

  void arm_snapshot() {
    publish_snapshot();
    loop_.add_timer_after(config_.checkpoint_interval,
                          [this] { arm_snapshot(); });
  }

  void publish_snapshot() {
    if (!config_.checkpointing()) return;
    QuerierSnapshot s;
    s.valid = true;
    metrics::merge_fields(s.partial, report_);  // into empty: a copy
    // The impairments come from the streams alone: the final snapshot runs
    // after finalize_report has folded them into report_ as well.
    s.partial.impairments = {};
    s.partial.latency_hist = report_.latency_hist;
    for (const auto& [name, stream] : fault_streams_) {
      s.partial.impairments.merge(stream->counters());
      s.streams[name] = stream->position(clock_.real_origin());
    }
    auto snap_pending = [&](const PendingQuery& pq) {
      CheckpointPending cp;
      cp.record = record_of(pq);
      cp.transport = pq.transport;
      cp.retries_used = pq.retries_used;
      cp.payload = pq.payload;
      s.pending.push_back(std::move(cp));
    };
    for (const auto& [source, us] : udp_socks_) {
      us->pending.for_each(snap_pending);
      // Staged sends are in flight for checkpoint purposes: losing them on
      // resume would silently drop queries the schedule already committed.
      for (const auto& st : us->stage) snap_pending(st.pq);
    }
    for (const auto& [source, conn] : tcp_conns_)
      conn->pending.for_each(snap_pending);
    for (const auto& [source, n] : sent_per_source_)
      s.sent[source.to_string()] = n;
    std::lock_guard lock(snap_mu_);
    snap_ = std::move(s);
  }

  void on_wake() {
    // One read resets the eventfd counter, however many pushes wrote it.
    uint64_t buf;
    ssize_t r = ::read(wake_fd_.get(), &buf, sizeof(buf));
    (void)r;
    heartbeat_.beat();
    // Drain the input queue without blocking: try_pop via size probe (this
    // thread is the only consumer while it runs; reap() only drains after
    // the thread parks). Take only what is queued now: the controller
    // refills as fast as this loop pops, and chasing it would hold the
    // querier here, away from due sends and filling sockets. Every later
    // push writes the eventfd again, so the loop comes back for it.
    for (size_t n = queue_.size(); n > 0; --n) {
      auto rec = queue_.pop();
      if (!rec.has_value()) break;
      handle_record(std::move(*rec));
    }
    drain_adopt_inbox();
    if (queue_.closed_and_empty()) {
      input_done_ = true;
      maybe_finish();
    }
  }

  void drain_adopt_inbox() {
    std::vector<PendingQuery> batch;
    std::vector<TraceRecord> records;
    {
      std::lock_guard lock(adopt_mu_);
      batch.swap(adopt_inbox_);
      records.swap(record_inbox_);
    }
    for (auto& pq : batch) adopt_pending(std::move(pq));
    // A failed sibling's never-sent records re-enter the normal dispatch
    // path: still-future timestamps keep their original schedule.
    for (auto& rec : records) handle_record(std::move(rec));
  }

  /// Take over an in-flight query salvaged from a failed sibling or
  /// restored from a checkpoint: resend it through this querier's own
  /// socket for the source and track it in the matching pending table.
  /// The outcome resolves into the query's original send record.
  void adopt_pending(PendingQuery pq) {
    SendRecord& sr = *pq.extern_rec;
    pq.key = next_key_++;  // keys are per-querier; the orphan's would collide
    ++report_.lifecycle.adopted_resends;
    if (sr.send_time == 0) {
      // Restored from a checkpoint: the original monotonic timestamps died
      // with the process; latency restarts from the adoption resend.
      sr.send_time = mono_now_ns();
      pq.first_send = sr.send_time;
    }
    launch(std::move(pq), kStageAdopt);
  }

  void handle_record(TraceRecord rec) {
    if (config_.timed) {
      TimeNs deadline = clock_.deadline_for(rec.timestamp);
      if (deadline > mono_now_ns()) {
        // Records arrive in trace order, so this is nearly always an append;
        // upper_bound files an earlier one after its equal deadlines (FIFO).
        auto at = schedule_.end();
        if (!schedule_.empty() && deadline < schedule_.back().deadline)
          at = std::upper_bound(
              schedule_.begin(), schedule_.end(), deadline,
              [](TimeNs d, const Scheduled& item) { return d < item.deadline; });
        schedule_.insert(at, Scheduled{deadline, std::move(rec)});
        arm_earliest(schedule_timer_, schedule_.front().deadline,
                     &Querier::on_schedule_due);
        return;
      }
    }
    send_query(std::move(rec));  // behind schedule or fast mode: send now
  }

  /// The schedule timer: send everything due, re-arm for the new head.
  void on_schedule_due() {
    schedule_timer_.id = 0;
    TimeNs now = mono_now_ns();
    while (!schedule_.empty() && schedule_.front().deadline <= now) {
      TraceRecord rec = std::move(schedule_.front().rec);
      schedule_.pop_front();
      send_query(std::move(rec));
    }
    if (!schedule_.empty())
      arm_earliest(schedule_timer_, schedule_.front().deadline,
                   &Querier::on_schedule_due);
    maybe_finish();
  }

  void note_in_flight(int64_t delta) {
    in_flight_ += delta;
    report_.max_in_flight =
        std::max(report_.max_in_flight, static_cast<uint64_t>(in_flight_));
  }

  void send_query(TraceRecord rec) {
    SendRecord sr;
    sr.trace_time = rec.timestamp;
    sr.send_time = mono_now_ns();
    sr.source = rec.src.addr;
    sr.querier = id_;
    report_.sends.push_back(sr);
    ++report_.queries_sent;
    ++sent_count_for(rec.src.addr);

    PendingQuery pq;
    pq.key = next_key_++;
    pq.dns_id = dns_id_of(rec.dns_payload);
    pq.send_index = report_.sends.size() - 1;
    pq.transport = rec.transport;
    pq.first_send = sr.send_time;
    pq.source = rec.src.addr;
    pq.payload = std::move(rec.dns_payload);
    launch(std::move(pq), kStageFresh);
  }

  /// First send of a query from this querier, fresh (kStageFresh) or
  /// adopted (kStageAdopt), on the source's socket or connection; the
  /// entry then lives in that pending table until a terminal outcome.
  void launch(PendingQuery pq, uint8_t mode) {
    if (pq.transport == Transport::Udp) {
      UdpSock* us = udp_socket_for(pq.source);
      StagedSend st{std::move(pq), mode, false};
      if (us == nullptr)
        fail_staged(std::move(st));
      else
        send_udp(*us, std::move(st));
      return;
    }
    TcpConn* conn = tcp_conn_for(pq.source);
    if (conn == nullptr) {
      fail_staged(StagedSend{std::move(pq), mode, false});
      return;
    }
    TimeNs now = mono_now_ns();
    conn->last_activity = now;
    pq.deadline = now + config_.query_timeout;
    schedule_lifecycle(pq.deadline);
    note_in_flight(+1);
    if (put_tcp(conn, std::move(pq), now)) ++report_.lifecycle.duplicate_ids;
  }

  /// Put a query in its connection's pending table and on the wire (or the
  /// backlog, until connected). A broken send or a flapped link closes the
  /// connection, whose reconnect path resends it; an Eaten message waits
  /// for the lifecycle timer. Returns true on a DNS-ID collision.
  bool put_tcp(TcpConn* conn, PendingQuery pq, TimeNs now) {
    IpAddr source = pq.source;
    if (!conn->connected) {
      conn->backlog.push_back(pq.payload);
      return conn->pending.insert(std::move(pq));
    }
    size_t still_pending = 0;
    auto out = tcp_send(conn, source, now, pq.payload, &still_pending);
    bool collided = conn->pending.insert(std::move(pq));
    if (out == net::TcpSendOutcome::Error ||
        out == net::TcpSendOutcome::LinkDown)
      close_tcp(source, /*lost=*/true);
    else if (still_pending > 0)  // kernel buffer full: wait for writability
      (void)loop_.modify_fd(conn->stream.fd(), net::Interest{true, true});
    return collided;
  }

  UdpSock* udp_socket_for(const IpAddr& source) {
    auto it = udp_socks_.find(source);
    if (it != udp_socks_.end()) return it->second.get();
    auto sock = net::UdpSocket::bind(Endpoint{IpAddr{Ip4{127, 0, 0, 1}}, 0});
    if (!sock.ok()) return nullptr;
    auto owned = std::make_unique<UdpSock>();
    owned->sock = std::make_unique<net::ImpairedUdpSocket>(
        std::move(*sock), fault_stream("udp:", source), &loop_);
    UdpSock* raw = owned.get();
    auto add = loop_.add_fd(raw->sock->fd(), net::Interest{true, false},
                            [this, raw](bool, bool) { on_udp_readable(raw); });
    if (!add.ok()) return nullptr;
    udp_socks_.emplace(source, std::move(owned));
    return raw;
  }

  // ---- UDP send path: scalar, or staged for a batched flush ----

  /// Send now (scalar I/O) or stage for the round's sendmmsg (batched_io);
  /// either way the same post-send bookkeeping runs, so a fixed-seed run
  /// reports identical counters in both modes.
  void send_udp(UdpSock& us, StagedSend st) {
    if (config_.batched_io) {
      if (us.stage.empty()) staged_socks_.push_back(&us);
      us.stage.push_back(std::move(st));
      ++staged_count_;
      return;
    }
    auto sent = us.sock->send_to(config_.server, st.pq.payload);
    if (!sent.ok()) {
      fail_staged(std::move(st));
      return;
    }
    finish_udp_send(us, std::move(st), *sent, mono_now_ns());
  }

  /// Flush-hook body: one sendmmsg per socket covers everything staged
  /// during this poll round (the hook runs after due timers and before the
  /// loop blocks, so no send ever sits across an epoll_wait). Only the
  /// sockets that staged a send this round are visited, so the cost tracks
  /// the sends, not the number of trace sources.
  void flush_all_udp() {
    if (staged_count_ == 0) return;
    for (UdpSock* us : staged_socks_) flush_udp(*us);
    staged_socks_.clear();
    maybe_finish();
  }

  void flush_udp(UdpSock& us) {
    // Swap through querier-owned scratch so neither the stage nor the
    // batch gives up its capacity: a sending socket allocates nothing.
    std::vector<StagedSend>& batch = flush_batch_;
    batch.swap(us.stage);
    staged_count_ -= batch.size();
    flush_dgs_.clear();
    for (const auto& st : batch)
      flush_dgs_.push_back({config_.server, st.pq.payload});
    auto res = us.sock->send_batch(flush_dgs_, flush_wire_);
    TimeNs now = mono_now_ns();
    if (res.ok()) {
      // FIFO resolution preserves the scalar path's accounting order; a
      // wire flag of 0 is the batched spelling of send_to() == false
      // (kernel buffer full: deferred, retried by the lifecycle timer).
      for (size_t i = 0; i < batch.size(); ++i)
        finish_udp_send(us, std::move(batch[i]), flush_wire_[i] != 0, now);
    } else {
      for (auto& st : batch) fail_staged(std::move(st));
    }
    batch.clear();
  }

  /// A send that failed outright (no socket, or a hard send error).
  void fail_staged(StagedSend st) {
    SendRecord& sr = record_of(st.pq);
    ++report_.send_errors;
    switch (st.mode) {
      case kStageFresh:
        sr.outcome = QueryOutcome::Errored;
        break;
      case kStageAdopt:
        expire_pending(sr, QueryOutcome::Errored, report_);
        break;
      default:  // kStageRetry
        ++report_.lifecycle.expired;
        sr.outcome = QueryOutcome::Errored;
        note_in_flight(-1);
        break;
    }
  }

  /// Post-send bookkeeping for one UDP send; `on_wire` false means the
  /// kernel buffer was full (deferred, retried by the lifecycle timer).
  void finish_udp_send(UdpSock& us, StagedSend st, bool on_wire, TimeNs now) {
    PendingQuery pq = std::move(st.pq);
    if (st.mode == kStageRetry) {
      SendRecord& sr = record_of(pq);
      if (st.was_on_wire) {
        ++report_.lifecycle.retries;
        ++sr.retries;
      } else if (on_wire) {
        // First time this query actually reached the wire; latency still
        // counts from the original send attempt.
        ++report_.lifecycle.deferred_sends;
      }
      pq.wire_sent = st.was_on_wire || on_wire;
      pq.deadline = now + (pq.wire_sent
                               ? retry_backoff(config_.query_timeout,
                                               pq.retries_used,
                                               config_.retry_backoff_cap)
                               : kDeferredSendDelay);
      schedule_lifecycle(pq.deadline);
      us.pending.insert(std::move(pq));  // reinsert: not a fresh collision
      return;
    }
    // Fresh and adopted sends share the post-send shape; they differ only
    // in the deadline origin (trace send time vs adoption time).
    pq.wire_sent = on_wire;
    if (!on_wire) ++report_.lifecycle.deferred_sends;
    TimeNs base = st.mode == kStageFresh ? pq.first_send : now;
    pq.deadline = base + (on_wire ? config_.query_timeout : kDeferredSendDelay);
    schedule_lifecycle(pq.deadline);
    if (us.pending.insert(std::move(pq))) ++report_.lifecycle.duplicate_ids;
    note_in_flight(+1);
  }

  TcpConn* tcp_conn_for(const IpAddr& source) {
    auto it = tcp_conns_.find(source);
    if (it != tcp_conns_.end()) return it->second.get();
    auto stream = net::TcpStream::connect(config_.server);
    if (!stream.ok()) return nullptr;
    auto owned = std::make_unique<TcpConn>(std::move(*stream));
    TcpConn* raw = owned.get();
    raw->fault = fault_stream("tcp:", source);
    // Slow-client verdict is a pure function of (seed, per-querier open
    // order), so a fixed-seed run injects the same slowloris mix every time.
    raw->slow = config_.fault.has_value() &&
                config_.fault->is_slow_client(tcp_conn_seq_++);
    (void)raw->stream.set_nodelay(true);  // §5.2.1 disables Nagle at clients
    auto add = loop_.add_fd(raw->stream.fd(), net::Interest{true, true},
                            [this, source, raw](bool readable, bool writable) {
                              on_tcp_event(source, raw, readable, writable);
                            });
    if (!add.ok()) return nullptr;
    ++report_.connections_opened;
    tcp_conns_.emplace(source, std::move(owned));
    if (sweep_timer_ == 0) arm_sweep();
    return raw;
  }

  /// Single choke point for putting a framed query on a TCP connection.
  /// Normal connections go through the impairment layer; a slow_client
  /// connection instead queues the frame for one-byte-at-a-time dripping
  /// and reports Sent — the query then ages out through the ordinary
  /// timeout/retry lifecycle, which is precisely what a slowloris victim
  /// sees.
  net::TcpSendOutcome tcp_send(TcpConn* conn, const IpAddr& source, TimeNs now,
                               const std::vector<uint8_t>& payload,
                               size_t* pending_out = nullptr) {
    if (pending_out != nullptr) *pending_out = 0;
    if (conn->slow) {
      conn->drip_out.push_back(static_cast<uint8_t>(payload.size() >> 8));
      conn->drip_out.push_back(static_cast<uint8_t>(payload.size() & 0xff));
      conn->drip_out.insert(conn->drip_out.end(), payload.begin(),
                            payload.end());
      arm_drip(conn, source);
      return net::TcpSendOutcome::Sent;
    }
    return net::impaired_tcp_send(conn->stream, conn->fault, now, payload,
                                  pending_out);
  }

  void arm_drip(TcpConn* conn, const IpAddr& source) {
    if (conn->drip_armed || !conn->connected) return;
    conn->drip_armed = true;
    TimeNs interval =
        config_.fault.has_value() ? config_.fault->slow_drip : 100 * kMilli;
    // The timer holds only the source key: if the connection is gone (or
    // replaced by a reconnect) when it fires, the lookup resolves to
    // whatever is current and the stale drip state dies with the old conn.
    loop_.add_timer_after(interval, [this, source] { drip_tick(source); });
  }

  void drip_tick(const IpAddr& source) {
    auto it = tcp_conns_.find(source);
    if (it == tcp_conns_.end()) return;
    TcpConn* conn = it->second.get();
    conn->drip_armed = false;
    if (conn->drip_pos < conn->drip_out.size()) {
      uint8_t byte = conn->drip_out[conn->drip_pos];
      ssize_t n = ::send(conn->stream.fd(), &byte, 1, MSG_NOSIGNAL);
      if (n == 1) ++conn->drip_pos;
      // EAGAIN (or a dying socket): retry next tick; a real failure
      // surfaces through the readable path as a close.
    }
    if (conn->drip_pos < conn->drip_out.size()) arm_drip(conn, source);
  }

  void on_udp_readable(UdpSock* us) {
    if (config_.batched_io) {
      // Drain with recvmmsg: the views alias this thread's receive arena,
      // valid until the next recv_batch call on this thread (any socket) —
      // match_response consumes them before then. A short batch emptied the
      // socket; the loop is level-triggered, so stop there rather than pay
      // a recvmmsg to hear EAGAIN.
      while (true) {
        auto batch = us->sock->recv_batch();
        if (!batch.ok()) {
          ++report_.lifecycle.socket_errors;
          return;
        }
        for (const auto& view : *batch)
          match_response(view.payload, us->pending);
        if (batch->size() < net::UdpSocket::kBatchSize) return;
      }
    }
    while (true) {
      auto dg = us->sock->recv();
      if (!dg.ok()) {
        ++report_.lifecycle.socket_errors;
        return;
      }
      if (!dg->has_value()) return;
      match_response((**dg).payload, us->pending);
    }
  }

  void on_tcp_event(const IpAddr& source, TcpConn* conn, bool readable,
                    bool writable) {
    if (writable && !conn->connected) {
      TimeNs now = mono_now_ns();
      if (now < conn->reopen_at && !readable) {  // an error ends the pause
        (void)loop_.modify_fd(conn->stream.fd(), net::Interest{true, false});
        loop_.add_timer_at(conn->reopen_at, [this, source] {
          auto it = tcp_conns_.find(source);
          if (it != tcp_conns_.end() && !it->second->connected)
            (void)loop_.modify_fd(it->second->stream.fd(), net::Interest{true, true});
        });
        return;
      }
      conn->connected = true;
      for (auto& msg : conn->backlog) {
        auto out = tcp_send(conn, source, now, msg);
        if (out == net::TcpSendOutcome::Error ||
            out == net::TcpSendOutcome::LinkDown) {
          close_tcp(source, /*lost=*/true);
          return;
        }
        // Eaten messages stay pending and resend on timeout.
      }
      conn->backlog.clear();
      // Keep write interest while the flush left bytes behind — dropping it
      // here would strand a partial send forever.
      (void)loop_.modify_fd(conn->stream.fd(),
                            net::Interest{true, conn->stream.pending_bytes() > 0});
    } else if (writable) {
      auto pending = conn->stream.flush();
      if (!pending.ok()) {
        close_tcp(source, /*lost=*/true);
        return;
      }
      if (*pending == 0)
        (void)loop_.modify_fd(conn->stream.fd(), net::Interest{true, false});
    }
    if (readable) {
      bool closed = false;
      auto messages = conn->stream.read_messages(closed);
      if (messages.ok()) {
        for (const auto& msg : *messages) match_response(msg, conn->pending);
      } else {
        ++report_.lifecycle.socket_errors;
      }
      conn->last_activity = mono_now_ns();
      if (closed || !messages.ok()) close_tcp(source, /*lost=*/true);
    }
  }

  /// Tear down a TCP connection. `lost` marks an involuntary loss (peer
  /// close or socket error): unanswered queries are then resent over a
  /// fresh connection while the per-source reconnect budget lasts; beyond
  /// it (or on voluntary idle close) they become Errored.
  void close_tcp(const IpAddr& source, bool lost) {
    auto it = tcp_conns_.find(source);
    if (it == tcp_conns_.end()) return;
    loop_.remove_fd(it->second->stream.fd());
    std::vector<PendingQuery> orphans = it->second->pending.drain();
    uint32_t reconnects_used = it->second->reconnects_used;
    tcp_conns_.erase(it);
    if (orphans.empty()) return;

    TcpConn* fresh = nullptr;
    if (lost && config_.tcp_reconnect &&
        reconnects_used < config_.max_tcp_reconnects) {
      fresh = tcp_conn_for(source);
      if (fresh != nullptr) {
        fresh->reconnects_used = reconnects_used + 1;
        fresh->reopen_at =
            mono_now_ns() + retry_backoff(kReconnectPause, reconnects_used + 1,
                                          config_.retry_backoff_cap);
        ++report_.lifecycle.tcp_reconnects;
      }
    }
    TimeNs now = mono_now_ns();
    for (auto& pq : orphans) {
      SendRecord& sr = record_of(pq);
      if (fresh != nullptr && pq.retries_used < config_.max_retries) {
        ++pq.retries_used;
        ++sr.retries;
        ++report_.lifecycle.retries;
        pq.deadline = now + retry_backoff(config_.query_timeout,
                                          pq.retries_used,
                                          config_.retry_backoff_cap);
        schedule_lifecycle(pq.deadline);
        (void)put_tcp(fresh, std::move(pq), now);  // backlogged until it connects
      } else {
        ++report_.lifecycle.expired;
        sr.outcome = QueryOutcome::Errored;
        note_in_flight(-1);
      }
    }
    maybe_finish();
  }

  void arm_sweep() {
    sweep_timer_ = loop_.add_timer_after(kSecond, [this] {
      TimeNs cutoff = mono_now_ns() - config_.tcp_idle_timeout;
      for (auto it = tcp_conns_.begin(); it != tcp_conns_.end();) {
        auto next = std::next(it);
        if (it->second->last_activity < cutoff)
          close_tcp(it->first, /*lost=*/false);
        it = next;
      }
      sweep_timer_ = 0;
      if (!tcp_conns_.empty()) arm_sweep();
      maybe_finish();
    });
  }

  // ---- lifecycle timer: timeouts, retransmits, bounded expiry ----

  /// Keep the single lifecycle timer at the earliest pending deadline
  /// across every table this querier owns.
  void schedule_lifecycle(TimeNs deadline) {
    arm_earliest(lifecycle_timer_, deadline, &Querier::on_lifecycle_due);
  }

  /// Arm `t` at `deadline`, or pull it earlier; a later deadline waits for
  /// the timer's own callback to re-arm.
  void arm_earliest(EarliestTimer& t, TimeNs deadline,
                    void (Querier::*on_due)()) {
    if (t.id != 0) {
      if (deadline >= t.deadline) return;
      loop_.cancel_timer(t.id);
    }
    t.deadline = deadline;
    t.id = loop_.add_timer_at(deadline, [this, on_due] { (this->*on_due)(); });
  }

  void on_lifecycle_due() {
    lifecycle_timer_.id = 0;
    heartbeat_.beat();
    TimeNs now = mono_now_ns();
    for (auto& [source, us] : udp_socks_) {
      for (auto& pq : us->pending.take_due(now))
        handle_udp_due(*us, std::move(pq));
    }
    // Collect due TCP entries first: handling one may close/reopen
    // connections, which mutates tcp_conns_ mid-iteration otherwise.
    std::vector<std::pair<IpAddr, PendingQuery>> tcp_due;
    for (auto& [source, conn] : tcp_conns_) {
      for (auto& pq : conn->pending.take_due(now))
        tcp_due.emplace_back(source, std::move(pq));
    }
    for (auto& [source, pq] : tcp_due) handle_tcp_due(source, std::move(pq), now);
    rearm_lifecycle();
    maybe_finish();
  }

  void rearm_lifecycle() {
    std::optional<TimeNs> next;
    auto consider = [&next](std::optional<TimeNs> d) {
      if (d.has_value() && (!next.has_value() || *d < *next)) next = d;
    };
    for (auto& [source, us] : udp_socks_) consider(us->pending.next_deadline());
    for (auto& [source, conn] : tcp_conns_) consider(conn->pending.next_deadline());
    if (next.has_value()) schedule_lifecycle(*next);
  }

  void handle_udp_due(UdpSock& us, PendingQuery pq) {
    SendRecord& sr = record_of(pq);
    if (pq.wire_sent) ++report_.lifecycle.timeouts;
    if (pq.retries_used >= config_.max_retries) {
      ++report_.lifecycle.expired;
      sr.outcome = pq.wire_sent ? QueryOutcome::TimedOut : QueryOutcome::Errored;
      note_in_flight(-1);
      return;
    }
    ++pq.retries_used;
    bool was_on_wire = pq.wire_sent;
    send_udp(us, StagedSend{std::move(pq), kStageRetry, was_on_wire});
  }

  void handle_tcp_due(const IpAddr& source, PendingQuery pq, TimeNs now) {
    SendRecord& sr = record_of(pq);
    ++report_.lifecycle.timeouts;
    if (pq.retries_used >= config_.max_retries) {
      ++report_.lifecycle.expired;
      sr.outcome = QueryOutcome::TimedOut;
      note_in_flight(-1);
      return;
    }
    ++pq.retries_used;
    TcpConn* conn = tcp_conn_for(source);  // reuse, or reopen if it vanished
    if (conn == nullptr) {
      ++report_.send_errors;
      ++report_.lifecycle.expired;
      sr.outcome = QueryOutcome::Errored;
      note_in_flight(-1);
      return;
    }
    ++report_.lifecycle.retries;
    ++sr.retries;
    pq.deadline = now + retry_backoff(config_.query_timeout, pq.retries_used,
                                      config_.retry_backoff_cap);
    (void)put_tcp(conn, std::move(pq), now);  // a retry is not a fresh collision
  }

  void match_response(std::span<const uint8_t> payload, PendingTable& pending) {
    if (payload.size() < 2) return;
    auto pq = pending.match(dns_id_of(payload));
    if (!pq.has_value()) {
      // Late (already expired) or unsolicited — the id names no live query.
      ++report_.lifecycle.unmatched_responses;
      return;
    }
    SendRecord& sr = record_of(*pq);
    sr.latency = mono_now_ns() - sr.send_time;
    sr.outcome = QueryOutcome::Answered;
    ++report_.responses_received;
    report_.latency_hist.add(sr.latency);
    if (sr.retries > 0) ++report_.lifecycle.answered_after_retry;
    note_in_flight(-1);
    maybe_finish();
  }

  void maybe_finish() {
    if (!input_done_ || !schedule_.empty() || stopping_) return;
    // Every query reaches a terminal outcome (answer, expiry, error), so
    // in-flight hitting zero is the natural end; drain_grace only caps the
    // wait when the retry/expiry schedule outlives the caller's patience.
    // Staged-but-unflushed sends count as in flight.
    auto stop = [this] {
      stopping_ = true;
      loop_.stop();
    };
    if (in_flight_ == 0 && staged_count_ == 0)
      stop();
    else if (drain_timer_ == 0)
      drain_timer_ = loop_.add_timer_after(config_.drain_grace, stop);
  }

  void finalize_report() {
    // Put any still-staged sends on the wire (or into the pending tables,
    // where the abandonment sweep below accounts them) before counting.
    if (config_.batched_io) flush_all_udp();
    // Refuse further adoptions, then account anything still in the inbox —
    // orphans that arrived too late to resend are errored, never lost.
    std::vector<PendingQuery> leftover;
    std::vector<TraceRecord> leftover_records;
    {
      std::lock_guard lock(adopt_mu_);
      adopt_closed_ = true;
      leftover.swap(adopt_inbox_);
      leftover_records.swap(record_inbox_);
    }
    report_.shed_queries += leftover_records.size();
    for (auto& pq : leftover)
      expire_pending(record_of(pq), QueryOutcome::Errored, report_);
    // Queries still pending at shutdown (drain_grace fired before their
    // expiry) are abandoned: counted, never silently lost.
    auto abandon = [this](PendingQuery& pq) {
      if (expire_pending(record_of(pq),
                         pq.wire_sent ? QueryOutcome::TimedOut : QueryOutcome::Errored,
                         report_))
        ++report_.lifecycle.abandoned;
    };
    for (auto& [source, us] : udp_socks_)
      for (auto& pq : us->pending.drain()) abandon(pq);
    for (auto& [source, conn] : tcp_conns_)
      for (auto& pq : conn->pending.drain()) abandon(pq);
    for (const auto& sr : report_.sends)
      report_.replay_end = std::max(report_.replay_end, sr.send_time);
    for (const auto& [name, stream] : fault_streams_)
      report_.impairments.merge(stream->counters());
    // Final (quiescent) snapshot: pending tables are empty, counters final.
    publish_snapshot();
    heartbeat_.mark_done();
  }

  uint32_t id_;
  const EngineConfig& config_;
  const ReplayClock& clock_;
  const CheckpointState* resume_;  ///< this querier's shard's, or nullptr
  BoundedQueue<TraceRecord> queue_;
  net::Fd wake_fd_;
  net::EventLoop loop_;
  std::thread thread_;

  std::unordered_map<IpAddr, std::unique_ptr<UdpSock>, IpAddrHash> udp_socks_;
  std::unordered_map<IpAddr, std::unique_ptr<TcpConn>, IpAddrHash> tcp_conns_;
  uint64_t tcp_conn_seq_ = 0;  // per-querier open order, keys is_slow_client()
  // Named per-source impairment streams ("udp:<src>" / "tcp:<src>"),
  // created lazily; they outlive reconnects so a source's draw sequence is
  // continuous for the whole replay.
  std::unordered_map<std::string, std::unique_ptr<fault::FaultStream>>
      fault_streams_;

  EngineReport report_;
  uint64_t next_key_ = 1;
  int64_t in_flight_ = 0;
  size_t staged_count_ = 0;  ///< UDP sends awaiting the sendmmsg flush
  // Sockets whose stage went from empty to non-empty since the last flush,
  // in first-staged order (each at most once).
  std::vector<UdpSock*> staged_socks_;
  // flush_udp scratch, reused across flushes.
  std::vector<StagedSend> flush_batch_;
  std::vector<net::UdpSocket::OutDatagram> flush_dgs_;
  std::vector<uint8_t> flush_wire_;
  bool input_done_ = false;
  bool stopping_ = false;
  bool stalled_ = false;
  net::EventLoop::TimerId drain_timer_ = 0;
  net::EventLoop::TimerId sweep_timer_ = 0;
  EarliestTimer lifecycle_timer_;

  // Timed records not yet due, in deadline order (FIFO among equal ones),
  // behind one timer armed at the head; reap() salvages them in order.
  struct Scheduled {
    TimeNs deadline;
    TraceRecord rec;
  };
  std::deque<Scheduled> schedule_;
  EarliestTimer schedule_timer_;

  // Per-source cumulative sent counts (checkpoint trace positions).
  std::unordered_map<IpAddr, uint64_t, IpAddrHash> sent_per_source_;

  // Supervision state.
  Heartbeat heartbeat_;
  std::mutex life_mu_;
  std::condition_variable life_cv_;
  bool parked_ = false;
  bool finished_ = false;
  bool released_ = false;

  // Cross-thread adoption inboxes (failed-sibling salvage, checkpoint
  // resume): in-flight queries to resend, and never-sent trace records to
  // dispatch through the normal schedule.
  std::mutex adopt_mu_;
  bool adopt_closed_ = false;
  std::vector<PendingQuery> adopt_inbox_;
  std::vector<TraceRecord> record_inbox_;

  // Latest published checkpoint snapshot.
  mutable std::mutex snap_mu_;
  QuerierSnapshot snap_;
};

// ---------------------------------------------------------------------------
// Distributor: a passive group of queriers — no thread, no queue. The
// controller thread routes each record to one of the group's queriers,
// same-source sticky, and pushes it straight onto that querier's queue
// under the overload policy: a full queue either back-pressures the
// controller (Block), evicts the oldest record with accounting
// (DropOldest), or blocks with the stall time surfaced (ClampRate) so the
// operator sees what the clock distortion cost. On collect the group
// folds its queriers' reports (counters, histograms, send records) into
// one.
//
// This is also where the self-healing happens: the supervisor's failure
// callback reaps a dead querier, moves its sticky sources to a live
// sibling, re-dispatches its unsent records and hands its in-flight
// queries to the sibling for adoption.
// ---------------------------------------------------------------------------
class QueryEngine::Distributor {
 public:
  Distributor(uint32_t first_querier_id, size_t querier_count,
              const EngineConfig& config, const ReplayClock& clock,
              const CheckpointState* resume)
      : config_(config), partition_(querier_count) {
    for (size_t i = 0; i < querier_count; ++i) {
      queriers_.push_back(std::make_unique<Querier>(
          first_querier_id + static_cast<uint32_t>(i), config, clock, resume));
    }
    alive_.assign(queriers_.size(), true);
  }

  /// Controller thread: push `rec` onto its sticky querier's queue. A push
  /// rejected as closed means the querier died under us (recovery closed
  /// its queue); the record survived the rejected push, so re-route it.
  void dispatch(TraceRecord rec) {
    while (true) {
      size_t idx = querier_for(rec.src.addr);
      if (idx == SIZE_MAX) {
        // Every querier is dead: shed with accounting, never hang.
        shed_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      Querier& q = *queriers_[idx];
      if (push(q.queue(), rec) == PushResult::Ok) {
        q.wake();
        return;
      }
      std::lock_guard lock(map_mu_);
      alive_[idx] = false;
    }
  }

  /// Controller thread, after the last record: close the input queues.
  void finish() {
    for (auto& q : queriers_) q->finish();
  }

  void register_watches(Supervisor& supervisor) {
    for (size_t i = 0; i < queriers_.size(); ++i) {
      supervisor.watch("querier-" + std::to_string(queriers_[i]->id()),
                       &queriers_[i]->heartbeat(), [this, i] { recover(i); });
    }
  }

  /// Supervisor thread: a querier's heartbeat went stale. Reap it, move
  /// its sources to a sibling, re-dispatch what it never sent and have the
  /// sibling adopt what was in flight. Every salvaged query either reaches
  /// the sibling or is accounted (shed / expired) — none vanish.
  void recover(size_t idx) {
    Querier::Salvage salvage;
    if (!queriers_[idx]->reap(salvage)) return;  // finished normally
    size_t target = SIZE_MAX;
    uint64_t moved = 0;
    {
      std::lock_guard lock(map_mu_);
      alive_[idx] = false;
      for (size_t t = 0; t < queriers_.size(); ++t) {
        if (alive_[t]) {
          target = t;
          break;
        }
      }
      if (target != SIZE_MAX) moved = partition_.move_all(idx, target);
    }
    queriers_[idx]->release();
    {
      std::lock_guard lock(recover_mu_);
      ++recover_report_.querier_failures;
      recover_report_.sources_reassigned += moved;
    }
    if (target == SIZE_MAX) {
      graveyard(std::move(salvage));
      return;
    }
    // Never-sent records and in-flight queries both go through the adopt
    // inboxes — the sibling's input queue is closed once routing finished,
    // but the inboxes stay open while it drains, so a mid-drain recovery
    // re-dispatches on the original schedule instead of shedding.
    Querier& sibling = *queriers_[target];
    if (!salvage.unsent.empty() && !sibling.adopt_records(salvage.unsent)) {
      shed_.fetch_add(salvage.unsent.size(), std::memory_order_relaxed);
      salvage.unsent.clear();
    }
    if (!salvage.pending.empty() && !sibling.adopt(salvage.pending))
      graveyard(std::move(salvage));
  }

  /// Resume path (controller thread, before dispatch): route a restored
  /// in-flight query to the querier that owns its source.
  bool adopt_restored(PendingQuery pq) {
    size_t idx = querier_for(pq.source);
    if (idx == SIZE_MAX) return false;
    std::vector<PendingQuery> one;
    one.push_back(std::move(pq));
    return queriers_[idx]->adopt(one);
  }

  /// Fold the queriers' latest published snapshots (and this group's
  /// recovery/shedding ledger) into a checkpoint cut. Supervisor thread or
  /// controller thread (final checkpoint, after joins).
  void gather(CheckpointState& state) {
    for (auto& q : queriers_) {
      QuerierSnapshot s = q->snapshot();
      if (!s.valid) continue;
      state.partial.merge_from(std::move(s.partial));
      for (auto& cp : s.pending) state.pending.push_back(std::move(cp));
      for (auto& [name, pos] : s.streams) state.streams[name] = pos;
      for (auto& [ip, n] : s.sent) state.sent[ip] = n;
    }
    add_ledger(state.partial);
  }

  void join_all() {
    for (auto& q : queriers_) q->join();
  }

  EngineReport collect() {
    join_all();
    EngineReport merged;
    for (auto& q : queriers_) merged.merge_from(q->take_report());
    add_ledger(merged);
    return merged;
  }

 private:
  /// Add the recovery ledger, shed and clamp counters and the queue high
  /// water to `report`. Copies, not moves: the final checkpoint gather
  /// still reads the ledger after collect.
  void add_ledger(EngineReport& report) {
    {
      std::lock_guard lock(recover_mu_);
      EngineReport copy = recover_report_;
      report.merge_from(std::move(copy));
    }
    report.shed_queries += shed_.load(std::memory_order_relaxed);
    report.clamp_stall_ns += clamp_stall_ns_.load(std::memory_order_relaxed);
    for (const auto& q : queriers_)
      report.queue_hwm =
          std::max<uint64_t>(report.queue_hwm, q->queue_high_water());
  }

  /// The one bounded push, under the configured overload policy. Returns
  /// Ok, or Closed with `rec` intact — recovery closes a dead querier's
  /// queue, which also wakes a push blocked on it.
  PushResult push(BoundedQueue<TraceRecord>& q, TraceRecord& rec) {
    if (config_.overload == OverloadPolicy::Block) return q.push_for(rec, -1);
    PushResult pr = q.push_for(rec, config_.shed_grace);
    if (pr != PushResult::Full) return pr;
    if (config_.overload == OverloadPolicy::DropOldest) {
      std::optional<TraceRecord> evicted;
      pr = q.evict_push(rec, evicted);
      if (pr == PushResult::Ok && evicted.has_value())
        shed_.fetch_add(1, std::memory_order_relaxed);
      return pr;
    }
    TimeNs t0 = mono_now_ns();  // ClampRate: keep blocking, but account it
    pr = q.push_for(rec, -1);
    clamp_stall_ns_.fetch_add(mono_now_ns() - t0, std::memory_order_relaxed);
    return pr;
  }

  /// Sticky querier for a source, skipping dead queriers; SIZE_MAX when
  /// none is left alive.
  size_t querier_for(const IpAddr& source) {
    std::lock_guard lock(map_mu_);
    return partition_.place(source, [this](size_t i) { return alive_[i]; });
  }

  /// Nobody can take the salvage: account every query as lost, loudly.
  void graveyard(Querier::Salvage&& salvage) {
    std::lock_guard lock(recover_mu_);
    recover_report_.shed_queries += salvage.unsent.size();
    for (auto& pq : salvage.pending)
      if (pq.extern_rec != nullptr)
        expire_pending(*pq.extern_rec, QueryOutcome::Errored, recover_report_);
  }

  const EngineConfig& config_;
  std::vector<std::unique_ptr<Querier>> queriers_;

  // Sticky source→querier map plus liveness, shared with the supervisor's
  // recovery callback (which remaps a dead querier's sources).
  std::mutex map_mu_;
  SourcePartition partition_;
  std::vector<bool> alive_;

  // Recovery ledger: failure counts and grave-yarded query accounting,
  // written by the supervisor thread, merged after all joins.
  std::mutex recover_mu_;
  EngineReport recover_report_;

  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> clamp_stall_ns_{0};
};

// ---------------------------------------------------------------------------
// Shard: the distributor groups whose snapshots go to one checkpoint file
// and resume from one checkpoint state. Sources are split over shards and
// then over a shard's groups by the same first-appearance rule.
// ---------------------------------------------------------------------------
struct QueryEngine::Shard {
  std::vector<std::unique_ptr<Distributor>> distributors;
  SourcePartition distributor_of{1};
  const CheckpointState* resume = nullptr;
  std::string checkpoint_path;
  TraceFingerprint fingerprint;  ///< of this shard's slice of the trace
  uint64_t queries = 0;          ///< query records in that slice
  std::atomic<uint64_t> mutator_dropped{0};
  // Stable storage for restored in-flight records: adopting queriers write
  // outcomes through pointers into this vector, so it must never grow
  // after the pointers are handed out.
  std::vector<SendRecord> adopted_records;
  uint64_t restore_failures = 0;

  /// The checkpoint cut for this shard: the resumed base (cumulative
  /// across restores), overwritten by whatever its queriers have touched
  /// since.
  CheckpointState gather() {
    CheckpointState st;
    st.trace_hash = fingerprint.value();
    st.trace_queries = queries;
    if (resume != nullptr) {
      st.partial = resume->partial;
      st.streams = resume->streams;
      st.sent = resume->sent;
    }
    st.partial.mutator_dropped +=
        mutator_dropped.load(std::memory_order_relaxed);
    for (auto& d : distributors) d->gather(st);
    return st;
  }
};

// ---------------------------------------------------------------------------
// QueryEngine: the controller (Reader + Postman).
// ---------------------------------------------------------------------------
QueryEngine::QueryEngine(EngineConfig config) : config_(std::move(config)) {}
QueryEngine::~QueryEngine() = default;

Result<EngineReport> QueryEngine::replay(const std::vector<TraceRecord>& trace,
                                         const ReplayClock* shared_clock) {
  if (trace.empty()) return Err("empty trace");
  if (config_.distributors == 0 || config_.queriers_per_distributor == 0)
    return Err("need at least one distributor and querier");
  if (shared_clock != nullptr && !shared_clock->started())
    return Err("shared clock not started");
  const size_t shard_count = std::max<size_t>(1, config_.shards);
  if (shard_count == 1 && config_.resume_shards != nullptr)
    return Err("resume_shards requires shards > 1 (use resume)");
  if (shard_count > 1) {
    if (config_.resume != nullptr)
      return Err("sharded resume takes per-shard states (resume_shards), not a single checkpoint");
    if (config_.resume_shards != nullptr &&
        config_.resume_shards->size() != shard_count)
      return Err("resume_shards size does not match the shard count");
    // A per-shard sink would interleave unrelated slices.
    if (config_.checkpoint_sink)
      return Err("checkpoint_sink is incompatible with shards > 1");
  }

  // Each shard checkpoints its own slice to its own file and resumes from
  // its own state. trace_hash 0 marks a shard that died before its first
  // snapshot: it replays its slice from the start (re-sent queries are
  // counted once, the same contract as post-snapshot sends on resume).
  std::vector<Shard> shards(shard_count);
  bool resuming = false;
  for (size_t i = 0; i < shard_count; ++i) {
    Shard& sh = shards[i];
    sh.distributor_of = SourcePartition(config_.distributors);
    if (shard_count == 1) {
      sh.resume = config_.resume;
      sh.checkpoint_path = config_.checkpoint_path;
    } else {
      if (config_.resume_shards != nullptr &&
          (*config_.resume_shards)[i].trace_hash != 0)
        sh.resume = &(*config_.resume_shards)[i];
      if (!config_.checkpoint_path.empty())
        sh.checkpoint_path = shard_checkpoint_path(config_.checkpoint_path, i);
    }
    resuming = resuming || sh.resume != nullptr;
  }

  // A record's shard is decided by its trace source, before mutation, so
  // the split is a function of the input alone — the same slices
  // dist::partition_by_source hands to worker processes — and each shard's
  // fingerprint can be taken before anything is sent.
  const bool checkpointing = config_.checkpointing();
  SourcePartition shard_of(shard_count);
  if (checkpointing || resuming) {
    for (const auto& rec : trace) {
      if (rec.direction != trace::Direction::Query) continue;
      Shard& sh = shards[shard_of.place(rec.src.addr)];
      sh.fingerprint.add(rec);
      ++sh.queries;
    }
    for (const auto& sh : shards)
      if (sh.resume != nullptr &&
          sh.resume->trace_hash != sh.fingerprint.value())
        return Err("checkpoint was taken against a different trace");
  }

  // Per-source skip counts: how many query records the checkpoints already
  // put on the wire (mutator-dropped records never counted, so the skip
  // applies to mutator-surviving records only). Shards own disjoint
  // sources, so one map serves them all.
  std::unordered_map<IpAddr, uint64_t, IpAddrHash> skip;
  for (const auto& sh : shards) {
    if (sh.resume == nullptr) continue;
    for (const auto& [ip, n] : sh.resume->sent) {
      auto addr = IpAddr::parse(ip);
      if (!addr.ok()) return Err("checkpoint: bad source address " + ip);
      skip[*addr] = n;
    }
  }

  // Time synchronization broadcast (§2.6): latch t̄₁ from the first query
  // and t₁ slightly in the future so worker startup cost doesn't make the
  // first queries late. On resume, re-anchor at the first record no
  // checkpoint has sent, so the remaining schedule plays at original pace
  // instead of sprinting through the already-replayed prefix. A shared
  // clock (a worker process's barrier start) overrides.
  TimeNs anchor_ts = trace.front().timestamp;
  if (resuming) {
    auto remaining = skip;
    for (const auto& rec : trace) {
      if (rec.direction != trace::Direction::Query) continue;
      auto it = remaining.find(rec.src.addr);
      if (it != remaining.end() && it->second > 0) {
        --it->second;
        continue;
      }
      anchor_ts = rec.timestamp;
      break;
    }
  }
  ReplayClock own_clock;
  own_clock.start(anchor_ts, mono_now_ns() + kStartupLead);
  const ReplayClock& clock = shared_clock != nullptr ? *shared_clock : own_clock;

  // Querier ids are engine-wide, so a querier_stall:<id> fault wedges
  // exactly one querier at any shard count.
  uint32_t next_id = 0;
  for (auto& sh : shards) {
    for (size_t i = 0; i < config_.distributors; ++i) {
      sh.distributors.push_back(std::make_unique<Distributor>(
          next_id, config_.queriers_per_distributor, config_, clock,
          sh.resume));
      next_id += static_cast<uint32_t>(config_.queriers_per_distributor);
    }
  }

  // Supervision and the checkpoint ticker share one background thread.
  Supervisor supervisor(Supervisor::Config{
      config_.supervision_interval, config_.heartbeat_timeout,
      config_.checkpoint_interval});
  auto write_checkpoints = [&](const char* what) {
    for (auto& sh : shards) {
      CheckpointState st = sh.gather();
      if (!sh.checkpoint_path.empty()) {
        auto saved = save_checkpoint(sh.checkpoint_path, st);
        if (!saved.ok())
          LDP_WARN("replay", what << " failed: " << saved.error().message);
      }
      if (config_.checkpoint_sink) config_.checkpoint_sink(st);
    }
  };
  if (config_.supervise) {
    for (auto& sh : shards)
      for (auto& d : sh.distributors) d->register_watches(supervisor);
  }
  if (checkpointing)
    supervisor.set_checkpoint([&] { write_checkpoints("checkpoint"); });
  if (config_.supervise || checkpointing) supervisor.start();

  // Restored in-flight queries are adopted before dispatch, so their
  // sources' sticky assignment is decided by the query that was first on
  // the wire.
  for (auto& sh : shards) {
    if (sh.resume == nullptr) continue;
    sh.adopted_records.reserve(sh.resume->pending.size());
    for (const auto& cp : sh.resume->pending) {
      sh.adopted_records.push_back(cp.record);
      SendRecord& rec = sh.adopted_records.back();
      rec.send_time = 0;  // sentinel: re-stamped when the adopter resends
      rec.latency = -1;
      rec.outcome = QueryOutcome::Pending;
      PendingQuery pq;
      pq.dns_id = dns_id_of(cp.payload);
      pq.retries_used = cp.retries_used;
      pq.transport = cp.transport;
      pq.source = cp.record.source;
      pq.extern_rec = &rec;
      pq.payload = cp.payload;
      size_t idx = sh.distributor_of.place(pq.source);
      if (!sh.distributors[idx]->adopt_restored(std::move(pq))) {
        rec.outcome = QueryOutcome::Errored;
        ++sh.restore_failures;
      }
    }
  }

  // The Postman: mutate each record once (on this thread, so stateful user
  // closures never see concurrent calls), skip what the checkpoints
  // already replayed, and hand the rest to the record's shard, distributor
  // group and querier — in timed mode no earlier than kControllerLookahead
  // before the record is due. Pacing goes by the mutated timestamp, the one
  // the querier schedules by. The window widens by the trace's disorder, so
  // a record that trails a later one in the file is never held up behind
  // it: a record out of time order still reaches its querier in time.
  const TimeNs window =
      config_.timed ? kControllerLookahead + trace_disorder(trace) : 0;
  for (const auto& rec : trace) {
    if (rec.direction != trace::Direction::Query) continue;
    Shard& sh = shards[shard_of.place(rec.src.addr)];
    auto sk = skip.find(rec.src.addr);
    bool skipping = sk != skip.end() && sk->second > 0;
    TraceRecord record = rec;
    if (config_.live_mutator != nullptr) {
      auto verdict = config_.live_mutator->apply(record);
      if (!verdict.ok() || *verdict == mutate::Verdict::Drop) {
        // Pre-cut drops are already inside the checkpoint's counter.
        if (!skipping)
          sh.mutator_dropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
    }
    if (skipping) {
      --sk->second;
      continue;
    }
    if (config_.timed) wait_for_lookahead(clock.deadline_for(record.timestamp), window);
    size_t idx = sh.distributor_of.place(record.src.addr);
    sh.distributors[idx]->dispatch(std::move(record));
  }
  for (auto& sh : shards)
    for (auto& d : sh.distributors) d->finish();

  // Shutdown order matters. The supervisor stays alive across the joins:
  // a querier parked by a stall is only ever released through the
  // supervisor's reap→recover→release handshake, so stopping it first
  // would deadlock the join (parking is gated on supervision, so with it
  // off nothing ever parks and the joins are trivially safe). And every
  // querier must be joined BEFORE any report is merged — sibling adopters
  // write through extern pointers into each other's send vectors until
  // they exit, and merging moves those vectors.
  for (auto& sh : shards)
    for (auto& d : sh.distributors) d->join_all();
  supervisor.stop();

  EngineReport merged;
  merged.replay_start = clock.real_origin();
  for (auto& sh : shards) {
    merged.mutator_dropped += sh.mutator_dropped.load(std::memory_order_relaxed);
    for (auto& d : sh.distributors) merged.merge_from(d->collect());
    // Restored records that never resolved (adopter shut down first, or
    // the adoption itself failed) expire with accounting.
    for (auto& rec : sh.adopted_records)
      expire_pending(rec, QueryOutcome::Errored, merged);
    merged.lifecycle.expired += sh.restore_failures;
    merged.sends.insert(merged.sends.end(), sh.adopted_records.begin(),
                        sh.adopted_records.end());
    if (sh.resume != nullptr) {
      EngineReport base = sh.resume->partial;
      merged.merge_from(std::move(base));
    }
  }

  // Final quiescent checkpoint: a completed replay's file resumes into a
  // no-op (and the kill-and-resume smoke path reads its counters).
  if (checkpointing) write_checkpoints("final checkpoint");
  return merged;
}

}  // namespace ldp::replay

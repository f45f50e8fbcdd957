#include "server/frontend.hpp"

#include <algorithm>
#include <cerrno>
#include <sstream>

#include "util/log.hpp"

namespace ldp::server {

namespace {

// Header-only degraded reply: echo the query ID and opcode/RD bits, set QR,
// zero all section counts. 12 bytes, no zone lookup — the whole point of
// degradation is that it costs near-nothing per query.
std::vector<uint8_t> degraded_reply(std::span<const uint8_t> query,
                                    bool truncate, uint8_t rcode) {
  std::vector<uint8_t> reply(query.begin(), query.begin() + 12);
  reply[2] |= 0x80;                   // QR = response
  if (truncate) reply[2] |= 0x02;     // TC
  reply[3] = rcode;                   // clears RA/Z too
  std::fill(reply.begin() + 4, reply.end(), 0);  // QD/AN/NS/AR = 0
  return reply;
}

}  // namespace

void ConnectionStats::merge(const ConnectionStats& o) {
  accepted += o.accepted;
  closed_idle += o.closed_idle;
  closed_by_peer += o.closed_by_peer;
  closed_error += o.closed_error;
  closed_shutdown += o.closed_shutdown;
  evicted_lru += o.evicted_lru;
  refused_quota += o.refused_quota;
  deadline_closed += o.deadline_closed;
  write_stall_closed += o.write_stall_closed;
  overflow_closed += o.overflow_closed;
  refused_overload += o.refused_overload;
  dropped_overload += o.dropped_overload;
  truncated_overload += o.truncated_overload;
  overload_entered += o.overload_entered;
  overload_exited += o.overload_exited;
  established += o.established;
  peak_established += o.peak_established;
}

std::string ConnectionStats::summary() const {
  std::ostringstream out;
  out << "accepted " << accepted << "  established " << established
      << "  peak " << peak_established << "  closed_idle " << closed_idle
      << "  closed_by_peer " << closed_by_peer << "  closed_error "
      << closed_error;
  if (closed_shutdown > 0) out << "  closed_shutdown " << closed_shutdown;
  if (evicted_lru > 0) out << "  evicted_lru " << evicted_lru;
  if (refused_quota > 0) out << "  refused_quota " << refused_quota;
  if (deadline_closed > 0) out << "  deadline_closed " << deadline_closed;
  if (write_stall_closed > 0) out << "  write_stall_closed " << write_stall_closed;
  if (overflow_closed > 0) out << "  overflow_closed " << overflow_closed;
  if (refused_overload > 0) out << "  refused_overload " << refused_overload;
  if (dropped_overload > 0) out << "  dropped_overload " << dropped_overload;
  if (truncated_overload > 0) out << "  truncated_overload " << truncated_overload;
  if (overload_entered > 0) {
    out << "  overload_entered " << overload_entered << "  overload_exited "
        << overload_exited;
  }
  return out.str();
}

Result<std::unique_ptr<ServerFrontend>> ServerFrontend::start(net::EventLoop& loop,
                                                              AuthServer& server,
                                                              FrontendConfig config) {
  auto fe = std::unique_ptr<ServerFrontend>(new ServerFrontend(loop, server, config));

  if (config.fault.has_value() && config.fault->enabled()) {
    fe->udp_fault_ = std::make_unique<fault::FaultStream>(*config.fault, "srv:udp");
    fe->tcp_fault_ = std::make_unique<fault::FaultStream>(*config.fault, "srv:tcp");
  }
  // TCP listens on the port UDP got (so port 0 requests line up). Some
  // TCP client connection may already hold that port number; when any port
  // will do, try another pair instead of failing.
  for (int attempt = 1;; ++attempt) {
    auto udp_sock = LDP_TRY(net::UdpSocket::bind(config.bind, config.reuse_port));
    Endpoint tcp_bind = LDP_TRY(udp_sock.local_endpoint());
    auto listener = net::TcpListener::listen(tcp_bind, 512, config.reuse_port);
    if (!listener.ok() && listener.error().sys_errno == EADDRINUSE &&
        config.bind.port == 0 && attempt < 8)
      continue;
    if (!listener.ok()) return listener.error();
    fe->endpoint_ = tcp_bind;
    fe->udp_.emplace(std::move(udp_sock), fe->udp_fault_.get(), &loop);
    fe->listener_ = std::move(*listener);
    break;
  }
  if (config.response_cache_entries > 0)
    fe->cache_.emplace(config.response_cache_entries);

  ServerFrontend* raw = fe.get();
  LDP_TRY_VOID(loop.add_fd(fe->udp_->fd(), net::Interest{true, false},
                           [raw](bool, bool) { raw->on_udp_readable(); }));
  LDP_TRY_VOID(loop.add_fd(fe->listener_->fd(), net::Interest{true, false},
                           [raw](bool, bool) { raw->on_tcp_acceptable(); }));
  fe->sweep_timer_ =
      loop.add_timer_after(config.sweep_interval, [raw] { raw->sweep_connections(); });
  return fe;
}

ServerFrontend::~ServerFrontend() { shutdown(); }

fault::ImpairmentCounters ServerFrontend::impairments() const {
  fault::ImpairmentCounters total;
  if (udp_fault_ != nullptr) total.merge(udp_fault_->counters());
  if (tcp_fault_ != nullptr) total.merge(tcp_fault_->counters());
  return total;
}

void ServerFrontend::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  if (udp_.has_value()) loop_.remove_fd(udp_->fd());
  if (listener_.has_value()) loop_.remove_fd(listener_->fd());
  while (!connections_.empty()) {
    close_connection(connections_.begin(), CloseReason::Shutdown);
  }
  loop_.cancel_timer(sweep_timer_);
}

bool ServerFrontend::degrade_query(std::span<const uint8_t> query,
                                   std::vector<uint8_t>* reply_out) {
  reply_out->clear();
  if (config_.overload.policy == OverloadPolicy::None) return false;
  if (query.size() < 12 || config_.overload.policy == OverloadPolicy::Drop) {
    // Too short for even a degraded echo → same fate as Drop.
    ++conn_stats_.dropped_overload;
    return true;
  }
  if (config_.overload.policy == OverloadPolicy::Refuse) {
    *reply_out = degraded_reply(query, false, 5);  // RCODE 5 = REFUSED
    ++conn_stats_.refused_overload;
  } else {  // Truncate
    *reply_out = degraded_reply(query, true, 0);
    ++conn_stats_.truncated_overload;
  }
  return true;
}

void ServerFrontend::update_overload() {
  if (!config_.overload.enabled()) return;
  if (!overloaded_ && conn_stats_.established >= config_.overload.high_watermark) {
    overloaded_ = true;
    ++conn_stats_.overload_entered;
  } else if (overloaded_ &&
             conn_stats_.established <= config_.overload.low_watermark) {
    overloaded_ = false;
    ++conn_stats_.overload_exited;
  }
}

void ServerFrontend::on_udp_readable() {
  if (!config_.batched_udp) {
    // Scalar path: one recvfrom/sendto pair per datagram (kept for A/B
    // measurement and equivalence tests). Drain the socket: under load
    // many datagrams arrive per wakeup.
    while (true) {
      auto dg = udp_->recv();
      if (!dg.ok() || !dg->has_value()) return;
      const auto& datagram = **dg;
      if (overloaded_) {
        std::vector<uint8_t> degraded;
        if (degrade_query(datagram.payload, &degraded)) {
          if (!degraded.empty()) (void)udp_->send_to(datagram.from, degraded);
          continue;
        }
      }
      auto reply = server_.answer_wire(datagram.payload, datagram.from.addr,
                                       config_.udp_payload_limit);
      if (reply.has_value()) {
        (void)udp_->send_to(datagram.from, *reply);
      }
    }
  }
  // Batched path: recvmmsg the queries, answer into the reply arena, and
  // flush each inbound batch's replies with one sendmmsg. The flush must
  // happen per batch — the next recv_batch call on this thread recycles the
  // per-thread arena slots the query views point into. A short batch
  // emptied the socket: the loop is level-triggered and comes back for
  // anything that arrives later.
  while (true) {
    auto batch = udp_->recv_batch();
    if (!batch.ok()) return;
    for (const auto& view : *batch) handle_udp_query(view.from, view.payload);
    flush_udp_replies();
    if (batch->size() < net::UdpSocket::kBatchSize) return;
  }
}

bool ServerFrontend::cache_usable() const {
  if (!cache_.has_value() || server_.config().rotate_answers) return false;
  // A cached render is only valid when every client would get the same
  // bytes: a single catch-all view. Split-horizon setups bypass.
  const auto& views = server_.views().views();
  return views.size() == 1 && views[0]->match_clients.empty();
}

std::vector<uint8_t>& ServerFrontend::next_reply_buf() {
  if (udp_out_used_ == udp_out_bufs_.size()) udp_out_bufs_.emplace_back();
  std::vector<uint8_t>& buf = udp_out_bufs_[udp_out_used_++];
  buf.clear();
  return buf;
}

void ServerFrontend::handle_udp_query(const Endpoint& from,
                                      std::span<const uint8_t> query) {
  if (overloaded_) {
    std::vector<uint8_t> degraded;
    if (degrade_query(query, &degraded)) {
      if (!degraded.empty()) {
        std::vector<uint8_t>& buf = next_reply_buf();
        buf = std::move(degraded);
        udp_out_.push_back(net::UdpSocket::OutDatagram{from, buf});
      }
      return;
    }
  }
  if (cache_usable()) {
    cache_->sync_revision(server_.revision());
    std::vector<uint8_t>& buf = next_reply_buf();
    bool nxdomain = false;
    switch (cache_->probe(query, config_.udp_payload_limit, buf, nxdomain)) {
      case ResponseCache::Outcome::Hit:
        server_.note_cached_response(buf.size(), nxdomain);
        udp_out_.push_back(net::UdpSocket::OutDatagram{from, buf});
        return;
      case ResponseCache::Outcome::Miss: {
        auto reply = server_.answer_wire(query, from.addr, config_.udp_payload_limit);
        if (!reply.has_value()) {
          --udp_out_used_;  // return the unused arena slot
          return;
        }
        cache_->insert(*reply);
        buf = std::move(*reply);
        udp_out_.push_back(net::UdpSocket::OutDatagram{from, buf});
        return;
      }
      case ResponseCache::Outcome::Bypass:
        --udp_out_used_;  // slot unused; fall through to the plain slow path
        break;
    }
  }
  auto reply = server_.answer_wire(query, from.addr, config_.udp_payload_limit);
  if (reply.has_value()) {
    std::vector<uint8_t>& buf = next_reply_buf();
    buf = std::move(*reply);
    udp_out_.push_back(net::UdpSocket::OutDatagram{from, buf});
  }
}

void ServerFrontend::flush_udp_replies() {
  if (!udp_out_.empty()) {
    // Best-effort like the scalar path's ignored send_to result: a reply
    // the kernel would not take is indistinguishable from a lost one.
    (void)udp_->send_batch(udp_out_, udp_wire_flags_);
    udp_out_.clear();
  }
  udp_out_used_ = 0;
}

void ServerFrontend::on_tcp_acceptable() {
  const LimitsConfig& limits = config_.limits;
  while (true) {
    auto accepted = listener_->accept();
    if (!accepted.ok() || !accepted->has_value()) return;
    net::TcpStream stream = std::move(**accepted);
    // Per-client quota: refuse before the connection is ever established
    // (the stream destructor closes the socket; the client sees FIN).
    if (limits.per_client_quota > 0) {
      auto found = per_client_.find(stream.peer().addr);
      if (found != per_client_.end() && found->second >= limits.per_client_quota) {
        ++conn_stats_.refused_quota;
        continue;
      }
    }
    // Admission: close least-recently-active connections until the newcomer
    // fits (RFC 7766 §6.1 — servers may close idle connections at will).
    // The cap always admits the newcomer, so one stuck client can't starve
    // the listen queue.
    if (limits.max_connections > 0) {
      while (conn_stats_.established >= limits.max_connections &&
             !connections_.empty()) {
        close_connection(std::prev(connections_.end()), CloseReason::EvictedLru);
      }
    }
    connections_.emplace_front(std::move(stream), mono_now_ns());
    auto it = connections_.begin();
    ++conn_stats_.accepted;
    ++conn_stats_.established;
    ++per_client_[it->client];
    conn_stats_.peak_established =
        std::max(conn_stats_.peak_established, conn_stats_.established);
    auto add = loop_.add_fd(it->stream.fd(), net::Interest{true, false},
                            [this, it](bool readable, bool writable) {
                              // Writable first: a close there must not be
                              // followed by a read on the dead iterator.
                              if (writable && !on_conn_writable(it)) return;
                              if (readable) on_conn_readable(it);
                            });
    if (!add.ok()) {
      close_connection(it, CloseReason::Error);
      continue;
    }
    update_overload();
  }
}

void ServerFrontend::on_conn_readable(ConnIter it) {
  bool closed = false;
  auto messages = it->stream.read_messages(closed);
  if (!messages.ok()) {
    close_connection(it, CloseReason::Error);
    return;
  }
  TimeNs now = mono_now_ns();
  it->last_activity = now;
  // MRU to the front — the list's back stays the LRU eviction victim.
  if (it != connections_.begin()) {
    connections_.splice(connections_.begin(), connections_, it);
  }
  // Progress = a complete message; dribbled partial bytes deliberately do
  // not count (that's what the read deadline measures).
  if (!messages->empty()) it->last_progress = now;
  for (const auto& msg : *messages) {
    std::optional<std::vector<uint8_t>> reply;
    if (overloaded_) {
      std::vector<uint8_t> degraded;
      if (degrade_query(msg, &degraded)) {
        if (degraded.empty()) continue;
        reply = std::move(degraded);
      }
    }
    if (!reply.has_value()) {
      // Connection transports carry no size limit (udp_limit = 0).
      reply = server_.answer_wire(msg, it->client, 0);
    }
    if (reply.has_value()) {
      size_t pending = 0;
      auto out = net::impaired_tcp_send(it->stream, tcp_fault_.get(), now,
                                        *reply, &pending);
      if (out == net::TcpSendOutcome::Error ||
          out == net::TcpSendOutcome::LinkDown) {
        close_connection(it, CloseReason::Error);
        return;
      }
      if (!note_pending_out(it, pending, now)) {
        close_connection(it, CloseReason::Error);
        return;
      }
    }
  }
  // Bounded reassembly buffer: a client streaming garbage that never
  // completes a frame is cut off here rather than growing `in_` forever.
  if (config_.limits.max_partial_bytes > 0 &&
      it->stream.partial_bytes() > config_.limits.max_partial_bytes) {
    close_connection(it, CloseReason::Overflow);
    return;
  }
  if (closed) close_connection(it, CloseReason::Peer);
}

bool ServerFrontend::on_conn_writable(ConnIter it) {
  auto pending = it->stream.flush();
  if (!pending.ok()) {
    close_connection(it, CloseReason::Error);
    return false;
  }
  if (!note_pending_out(it, *pending, mono_now_ns())) {
    close_connection(it, CloseReason::Error);
    return false;
  }
  return true;
}

bool ServerFrontend::note_pending_out(ConnIter it, size_t pending, TimeNs now) {
  if (pending > 0) {
    if (it->write_blocked_since == 0) {
      it->write_blocked_since = now;
      return loop_.modify_fd(it->stream.fd(), net::Interest{true, true}).ok();
    }
    return true;  // already armed; the stall clock keeps its start time
  }
  if (it->write_blocked_since != 0) {
    it->write_blocked_since = 0;
    return loop_.modify_fd(it->stream.fd(), net::Interest{true, false}).ok();
  }
  return true;
}

void ServerFrontend::close_connection(ConnIter it, CloseReason reason) {
  loop_.remove_fd(it->stream.fd());
  auto found = per_client_.find(it->client);
  if (found != per_client_.end() && --found->second == 0) {
    per_client_.erase(found);
  }
  connections_.erase(it);
  --conn_stats_.established;
  switch (reason) {
    case CloseReason::Idle: ++conn_stats_.closed_idle; break;
    case CloseReason::Peer: ++conn_stats_.closed_by_peer; break;
    case CloseReason::Error: ++conn_stats_.closed_error; break;
    case CloseReason::EvictedLru: ++conn_stats_.evicted_lru; break;
    case CloseReason::Deadline: ++conn_stats_.deadline_closed; break;
    case CloseReason::WriteStall: ++conn_stats_.write_stall_closed; break;
    case CloseReason::Overflow: ++conn_stats_.overflow_closed; break;
    case CloseReason::Shutdown: ++conn_stats_.closed_shutdown; break;
  }
  update_overload();
}

void ServerFrontend::sweep_connections() {
  TimeNs now = mono_now_ns();
  const LimitsConfig& limits = config_.limits;
  for (auto it = connections_.begin(); it != connections_.end();) {
    auto next = std::next(it);
    if (limits.read_deadline > 0 && it->stream.partial_bytes() > 0 &&
        now - it->last_progress > limits.read_deadline) {
      // Slowloris: bytes keep arriving (so the idle timer never fires) but
      // no message ever completes.
      close_connection(it, CloseReason::Deadline);
    } else if (limits.write_deadline > 0 && it->write_blocked_since != 0 &&
               now - it->write_blocked_since > limits.write_deadline) {
      close_connection(it, CloseReason::WriteStall);
    } else if (now - it->last_activity > config_.tcp_idle_timeout) {
      close_connection(it, CloseReason::Idle);
    }
    it = next;
  }
  if (!shut_down_) {
    sweep_timer_ = loop_.add_timer_after(config_.sweep_interval,
                                         [this] { sweep_connections(); });
  }
}

}  // namespace ldp::server

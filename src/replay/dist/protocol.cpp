#include "replay/dist/protocol.hpp"

#include <sstream>

#include "net/socket.hpp"
#include "replay/checkpoint.hpp"
#include "replay/partition.hpp"

namespace ldp::replay::dist {

namespace {

constexpr std::string_view kReportMagic = "ldp-report v1";

Result<void> check_line(const std::istringstream& ls, const char* what) {
  if (ls.fail()) return Err(std::string("control frame: malformed ") + what);
  return Ok();
}

}  // namespace

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::Hello: return "HELLO";
    case FrameType::Assign: return "ASSIGN";
    case FrameType::Barrier: return "BARRIER";
    case FrameType::Start: return "START";
    case FrameType::Heartbeat: return "HEARTBEAT";
    case FrameType::Progress: return "PROGRESS";
    case FrameType::Checkpoint: return "CHECKPOINT";
    case FrameType::Report: return "REPORT";
  }
  return "?";
}

Result<void> send_frame(int fd, FrameType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload)
    return Err("control frame payload too large");
  uint32_t len = static_cast<uint32_t>(payload.size() + 1);
  uint8_t header[5] = {static_cast<uint8_t>(len >> 24),
                       static_cast<uint8_t>(len >> 16),
                       static_cast<uint8_t>(len >> 8),
                       static_cast<uint8_t>(len),
                       static_cast<uint8_t>(type)};
  LDP_TRY_VOID(net::write_full(fd, std::span<const uint8_t>(header, 5)));
  if (!payload.empty()) {
    LDP_TRY_VOID(net::write_full(
        fd, std::span<const uint8_t>(
                reinterpret_cast<const uint8_t*>(payload.data()),
                payload.size())));
  }
  return Ok();
}

Result<std::optional<Frame>> recv_frame(int fd) {
  uint8_t prefix[4];
  bool open = LDP_TRY(net::read_full(fd, std::span<uint8_t>(prefix, 4)));
  if (!open) return std::optional<Frame>{};
  uint32_t len = static_cast<uint32_t>(prefix[0]) << 24 |
                 static_cast<uint32_t>(prefix[1]) << 16 |
                 static_cast<uint32_t>(prefix[2]) << 8 | prefix[3];
  if (len == 0) return Err("control frame with zero length");
  if (len > kMaxFramePayload + 1) return Err("control frame too large");
  std::vector<uint8_t> body(len);
  bool rest = LDP_TRY(net::read_full(fd, std::span<uint8_t>(body)));
  if (!rest) return Err("peer closed mid-frame (truncated control frame)");
  Frame f;
  f.type = static_cast<FrameType>(body[0]);
  f.payload.assign(reinterpret_cast<const char*>(body.data() + 1),
                   body.size() - 1);
  return std::optional<Frame>{std::move(f)};
}

void FrameReader::feed(const uint8_t* data, size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

Result<std::optional<Frame>> FrameReader::next() {
  if (buf_.size() - pos_ < 4) return std::optional<Frame>{};
  uint32_t len = static_cast<uint32_t>(buf_[pos_]) << 24 |
                 static_cast<uint32_t>(buf_[pos_ + 1]) << 16 |
                 static_cast<uint32_t>(buf_[pos_ + 2]) << 8 | buf_[pos_ + 3];
  if (len == 0) return Err("control frame with zero length");
  if (len > kMaxFramePayload + 1) return Err("control frame too large");
  if (buf_.size() - pos_ - 4 < len) return std::optional<Frame>{};
  Frame f;
  f.type = static_cast<FrameType>(buf_[pos_ + 4]);
  f.payload.assign(reinterpret_cast<const char*>(buf_.data() + pos_ + 5),
                   len - 1);
  pos_ += 4 + len;
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(pos_));
    pos_ = 0;
  }
  return std::optional<Frame>{std::move(f)};
}

// --- HELLO -----------------------------------------------------------------

std::string encode_hello(const HelloMsg& m) {
  std::ostringstream os;
  os << "worker " << m.worker << " pid " << m.pid << " version " << m.version
     << "\n";
  return os.str();
}

Result<HelloMsg> parse_hello(const std::string& payload) {
  std::istringstream ls(payload);
  std::string kw_worker, kw_pid, kw_version;
  HelloMsg m;
  ls >> kw_worker >> m.worker >> kw_pid >> m.pid >> kw_version >> m.version;
  LDP_TRY_VOID(check_line(ls, "HELLO"));
  if (kw_worker != "worker" || kw_pid != "pid" || kw_version != "version")
    return Err("control frame: malformed HELLO");
  return m;
}

// --- ASSIGN ----------------------------------------------------------------

std::string encode_assign(const AssignMsg& m) {
  std::ostringstream os;
  os << "index " << m.index << "\n"
     << "count " << m.count << "\n"
     << "server " << m.server.addr.to_string() << " " << m.server.port << "\n"
     << "timed " << (m.timed ? 1 : 0) << "\n"
     << "batched " << (m.batched_io ? 1 : 0) << "\n"
     << "distributors " << m.distributors << "\n"
     << "queriers " << m.queriers << "\n"
     << "heartbeat " << m.heartbeat_interval << "\n"
     << "checkpoint-interval " << m.checkpoint_interval << "\n";
  if (!m.fault_spec.empty()) os << "fault " << m.fault_spec << "\n";
  // The resume blob is raw multi-line checkpoint text; it must come last.
  if (!m.resume.empty()) os << "resume\n" << m.resume;
  return os.str();
}

Result<AssignMsg> parse_assign(const std::string& payload) {
  AssignMsg m;
  std::istringstream is(payload);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "index") {
      ls >> m.index;
    } else if (key == "count") {
      ls >> m.count;
    } else if (key == "server") {
      std::string ip;
      ls >> ip >> m.server.port;
      auto addr = IpAddr::parse(ip);
      if (!addr.ok()) return Err("ASSIGN: bad server address " + ip);
      m.server.addr = *addr;
    } else if (key == "timed") {
      int v = 0;
      ls >> v;
      m.timed = v != 0;
    } else if (key == "batched") {
      int v = 0;
      ls >> v;
      m.batched_io = v != 0;
    } else if (key == "distributors") {
      ls >> m.distributors;
    } else if (key == "queriers") {
      ls >> m.queriers;
    } else if (key == "heartbeat") {
      ls >> m.heartbeat_interval;
    } else if (key == "checkpoint-interval") {
      ls >> m.checkpoint_interval;
    } else if (key == "fault") {
      std::string spec;
      ls >> spec;
      m.fault_spec = spec;
    } else if (key == "resume") {
      // Everything after this marker is the checkpoint blob, verbatim.
      std::ostringstream rest;
      rest << is.rdbuf();
      m.resume = rest.str();
      break;
    } else {
      return Err("ASSIGN: unknown field '" + key + "'");
    }
    LDP_TRY_VOID(check_line(ls, "ASSIGN"));
  }
  if (m.count == 0 || m.index >= m.count)
    return Err("ASSIGN: index/count out of range");
  return m;
}

// --- BARRIER / START / PROGRESS -------------------------------------------

std::string encode_barrier(const BarrierMsg& m) {
  std::ostringstream os;
  switch (m.kind) {
    case BarrierMsg::Kind::Ready:
      os << "ready\n";
      break;
    case BarrierMsg::Kind::Probe:
      os << "probe " << m.seq << " " << m.t_ctrl << "\n";
      break;
    case BarrierMsg::Kind::Echo:
      os << "echo " << m.seq << " " << m.t_ctrl << " " << m.t_worker << "\n";
      break;
  }
  return os.str();
}

Result<BarrierMsg> parse_barrier(const std::string& payload) {
  std::istringstream ls(payload);
  std::string kind;
  BarrierMsg m;
  ls >> kind;
  if (kind == "ready") {
    m.kind = BarrierMsg::Kind::Ready;
    return m;
  }
  if (kind == "probe") {
    m.kind = BarrierMsg::Kind::Probe;
    ls >> m.seq >> m.t_ctrl;
  } else if (kind == "echo") {
    m.kind = BarrierMsg::Kind::Echo;
    ls >> m.seq >> m.t_ctrl >> m.t_worker;
  } else {
    return Err("control frame: malformed BARRIER");
  }
  LDP_TRY_VOID(check_line(ls, "BARRIER"));
  return m;
}

std::string encode_start(const StartMsg& m) {
  std::ostringstream os;
  os << "origin " << m.trace_origin << " at " << m.start_at << " offset "
     << m.offset << "\n";
  return os.str();
}

Result<StartMsg> parse_start(const std::string& payload) {
  std::istringstream ls(payload);
  std::string kw_origin, kw_at, kw_offset;
  StartMsg m;
  ls >> kw_origin >> m.trace_origin >> kw_at >> m.start_at >> kw_offset >>
      m.offset;
  LDP_TRY_VOID(check_line(ls, "START"));
  if (kw_origin != "origin" || kw_at != "at" || kw_offset != "offset")
    return Err("control frame: malformed START");
  return m;
}

std::string encode_progress(const ProgressMsg& m) {
  std::ostringstream os;
  os << "sent " << m.sent << " received " << m.received << "\n";
  return os.str();
}

Result<ProgressMsg> parse_progress(const std::string& payload) {
  std::istringstream ls(payload);
  std::string kw_sent, kw_recv;
  ProgressMsg m;
  ls >> kw_sent >> m.sent >> kw_recv >> m.received;
  LDP_TRY_VOID(check_line(ls, "PROGRESS"));
  if (kw_sent != "sent" || kw_recv != "received")
    return Err("control frame: malformed PROGRESS");
  return m;
}

// --- REPORT ----------------------------------------------------------------

std::string encode_report(const EngineReport& r) {
  std::ostringstream os;
  os << kReportMagic << "\n";
  write_counters(os, r);
  os << "span " << r.replay_start << " " << r.replay_end << "\n";
  for (const auto& sr : r.sends) {
    os << "send " << sr.trace_time << " " << sr.send_time << " " << sr.latency
       << " " << sr.source.to_string() << " " << sr.querier << " "
       << sr.retries << " " << static_cast<int>(sr.outcome) << "\n";
  }
  os << "end\n";
  return os.str();
}

Result<EngineReport> parse_report(const std::string& payload) {
  EngineReport r;
  auto record = [&](const std::string& key, std::istream& ls) -> Result<void> {
    if (key == "span") {
      ls >> r.replay_start >> r.replay_end;
    } else if (key == "send") {
      SendRecord sr;
      std::string ip;
      int outcome = 0;
      ls >> sr.trace_time >> sr.send_time >> sr.latency >> ip >> sr.querier >>
          sr.retries >> outcome;
      auto addr = IpAddr::parse(ip);
      if (!addr.ok()) return Err("worker report send: bad source " + ip);
      sr.source = *addr;
      if (outcome < static_cast<int>(QueryOutcome::Pending) ||
          outcome > static_cast<int>(QueryOutcome::Errored))
        return Err("worker report send: bad outcome " + std::to_string(outcome));
      sr.outcome = static_cast<QueryOutcome>(outcome);
      r.sends.push_back(sr);
    } else {
      return Err("worker report: unknown record '" + key + "'");
    }
    return Ok();
  };
  LDP_TRY_VOID(read_keyed(payload, kReportMagic, "worker report", r, record));
  return r;
}

// --- slice partition -------------------------------------------------------

std::vector<std::vector<trace::TraceRecord>> partition_by_source(
    const std::vector<trace::TraceRecord>& trace, size_t n) {
  std::vector<std::vector<trace::TraceRecord>> slices(n);
  SourcePartition partition(n);
  for (const auto& rec : trace) {
    if (rec.direction != trace::Direction::Query) continue;
    slices[partition.place(rec.src.addr)].push_back(rec);
  }
  return slices;
}

}  // namespace ldp::replay::dist

#include "replay/checkpoint.hpp"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/base64.hpp"

namespace ldp::replay {

namespace {

constexpr std::string_view kMagic = "ldp-checkpoint v1";

// FNV-1a, the same construction stream_seed uses; good enough to tell two
// traces apart, cheap enough to run on every resume.
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
}

std::string hexdouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace

void TraceFingerprint::add(const trace::TraceRecord& rec) {
  fnv_mix(h_, static_cast<uint64_t>(rec.timestamp));
  fnv_mix(h_, rec.src.addr.hash());
  fnv_mix(h_, static_cast<uint64_t>(rec.transport));
  fnv_mix(h_, rec.dns_payload.size());
  if (rec.dns_payload.size() >= 2)
    fnv_mix(h_, static_cast<uint64_t>(rec.dns_payload[0]) << 8 |
                    rec.dns_payload[1]);
}

uint64_t trace_fingerprint(const std::vector<trace::TraceRecord>& trace) {
  TraceFingerprint fp;
  for (const auto& rec : trace)
    if (rec.direction == trace::Direction::Query) fp.add(rec);
  return fp.value();
}

std::string serialize_checkpoint(const CheckpointState& state) {
  std::ostringstream os;
  {
    const EngineReport& p = state.partial;
    os << kMagic << "\n";
    os << "trace " << state.trace_hash << " " << state.trace_queries << "\n";
    os << "counters " << p.queries_sent << " " << p.responses_received << " "
       << p.send_errors << " " << p.connections_opened << " "
       << p.mutator_dropped << " " << p.max_in_flight << " "
       << p.querier_failures << " " << p.sources_reassigned << " "
       << p.shed_queries << " " << p.queue_hwm << " " << p.clamp_stall_ns
       << "\n";
    const auto& l = p.lifecycle;
    os << "lifecycle " << l.timeouts << " " << l.retries << " " << l.expired
       << " " << l.duplicate_ids << " " << l.tcp_reconnects << " "
       << l.answered_after_retry << " " << l.deferred_sends << " "
       << l.unmatched_responses << " " << l.socket_errors << " "
       << l.adopted_resends << "\n";
    const auto& im = p.impairments;
    os << "impair " << im.processed << " " << im.dropped << " "
       << im.blackholed << " " << im.flap_dropped << " " << im.duplicated
       << " " << im.corrupted << " " << im.reordered << " " << im.delayed
       << "\n";
    os << "hist " << p.latency_hist.count() << " " << p.latency_hist.min()
       << " " << p.latency_hist.max() << " "
       << hexdouble(p.latency_hist.sum()) << "\n";
    for (size_t b = 0; b < metrics::Histogram::kBuckets; ++b) {
      if (p.latency_hist.bucket_value(b) > 0)
        os << "bucket " << b << " " << p.latency_hist.bucket_value(b) << "\n";
    }
    for (const auto& [ip, n] : state.sent) os << "sent " << ip << " " << n << "\n";
    for (const auto& [name, pos] : state.streams) {
      os << "stream " << name << " " << pos.packets << " "
         << pos.corrupt_words << " ";
      if (pos.origin_offset == fault::FaultStream::kNoOrigin)
        os << "none";
      else
        os << pos.origin_offset;
      os << "\n";
    }
    for (const auto& pq : state.pending) {
      os << "pending " << pq.record.source.to_string() << " "
         << transport_name(pq.transport) << " " << pq.retries_used << " "
         << pq.record.retries << " " << pq.record.trace_time << " "
         << pq.record.querier << " "
         << (pq.payload.empty() ? std::string("-")
                                : base64_encode(pq.payload))
         << "\n";
    }
    os << "end\n";
  }
  return os.str();
}

Result<void> save_checkpoint(const std::string& path,
                             const CheckpointState& state) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) return Err("cannot write checkpoint: " + tmp);
    os << serialize_checkpoint(state);
    os.flush();
    if (!os) return Err("short write to checkpoint: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    return Err("cannot rename checkpoint into place: " + path, errno);
  return Ok();
}

Result<CheckpointState> parse_checkpoint(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != kMagic)
    return Err("not a checkpoint (bad magic)");

  CheckpointState st;
  std::array<uint64_t, metrics::Histogram::kBuckets> buckets{};
  uint64_t hist_count = 0;
  int64_t hist_min = 0, hist_max = 0;
  double hist_sum = 0;
  bool saw_end = false;

  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "end") {
      saw_end = true;
      break;
    } else if (key == "trace") {
      ls >> st.trace_hash >> st.trace_queries;
    } else if (key == "counters") {
      EngineReport& p = st.partial;
      ls >> p.queries_sent >> p.responses_received >> p.send_errors >>
          p.connections_opened >> p.mutator_dropped >> p.max_in_flight >>
          p.querier_failures >> p.sources_reassigned >> p.shed_queries >>
          p.queue_hwm >> p.clamp_stall_ns;
    } else if (key == "lifecycle") {
      auto& l = st.partial.lifecycle;
      ls >> l.timeouts >> l.retries >> l.expired >> l.duplicate_ids >>
          l.tcp_reconnects >> l.answered_after_retry >> l.deferred_sends >>
          l.unmatched_responses >> l.socket_errors >> l.adopted_resends;
    } else if (key == "impair") {
      auto& im = st.partial.impairments;
      ls >> im.processed >> im.dropped >> im.blackholed >> im.flap_dropped >>
          im.duplicated >> im.corrupted >> im.reordered >> im.delayed;
    } else if (key == "hist") {
      std::string sum_text;
      ls >> hist_count >> hist_min >> hist_max >> sum_text;
      hist_sum = std::strtod(sum_text.c_str(), nullptr);
    } else if (key == "bucket") {
      size_t b = 0;
      uint64_t v = 0;
      ls >> b >> v;
      if (b >= metrics::Histogram::kBuckets)
        return Err("checkpoint histogram bucket out of range");
      buckets[b] = v;
    } else if (key == "sent") {
      std::string ip;
      uint64_t n = 0;
      ls >> ip >> n;
      st.sent[ip] = n;
    } else if (key == "stream") {
      std::string name, offset;
      fault::FaultStream::Position pos;
      ls >> name >> pos.packets >> pos.corrupt_words >> offset;
      if (offset != "none") pos.origin_offset = std::strtoll(offset.c_str(), nullptr, 10);
      st.streams[name] = pos;
    } else if (key == "pending") {
      std::string ip, transport, b64;
      CheckpointPending pq;
      ls >> ip >> transport >> pq.retries_used >> pq.record.retries >>
          pq.record.trace_time >> pq.record.querier >> b64;
      auto addr = IpAddr::parse(ip);
      if (!addr.ok()) return Err("checkpoint pending: bad source " + ip);
      pq.record.source = *addr;
      auto tr = transport_from_string(transport);
      if (!tr.ok()) return Err("checkpoint pending: " + tr.error().message);
      pq.transport = *tr;
      if (b64 != "-") {
        auto payload = base64_decode(b64);
        if (!payload.ok())
          return Err("checkpoint pending: bad payload: " + payload.error().message);
        pq.payload = std::move(*payload);
      }
      st.pending.push_back(std::move(pq));
    } else {
      return Err("checkpoint: unknown record '" + key + "'");
    }
    if (ls.fail()) return Err("checkpoint: malformed '" + key + "' line");
  }
  if (!saw_end) return Err("checkpoint truncated (no end marker)");
  st.partial.latency_hist.restore_state(buckets, hist_count, hist_min,
                                        hist_max, hist_sum);
  return st;
}

Result<CheckpointState> load_checkpoint(const std::string& path) {
  std::ifstream is(path);
  if (!is) return Err("cannot read checkpoint: " + path);
  std::ostringstream text;
  text << is.rdbuf();
  auto st = parse_checkpoint(text.str());
  if (!st.ok()) return Err(st.error().message + ": " + path);
  return st;
}

std::string shard_checkpoint_path(const std::string& path, size_t shard) {
  return path + ".shard" + std::to_string(shard);
}

Result<std::vector<CheckpointState>> load_sharded_checkpoints(
    const std::string& path, size_t shards) {
  std::vector<CheckpointState> out(shards);
  size_t found = 0;
  for (size_t i = 0; i < shards; ++i) {
    std::string p = shard_checkpoint_path(path, i);
    std::ifstream probe(p);
    if (!probe) continue;  // shard died before its first snapshot
    probe.close();
    out[i] = LDP_TRY(load_checkpoint(p));
    ++found;
  }
  if (found == 0)
    return Err("no shard checkpoints found at " + shard_checkpoint_path(path, 0) +
               " (wrong --shards count, or the run died before any snapshot?)");
  return out;
}

}  // namespace ldp::replay

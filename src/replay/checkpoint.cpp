#include "replay/checkpoint.hpp"

#include <array>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
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

void write_counters(std::ostream& os, const EngineReport& r) {
  EngineReport::fields(
      [&](const char* name, metrics::Merge, const auto& v) {
        os << "counter " << name << " " << v << "\n";
      },
      r);
  const auto& h = r.latency_hist;
  char sum[64];
  std::snprintf(sum, sizeof(sum), "%a", h.sum());
  os << "hist " << h.count() << " " << h.min() << " " << h.max() << " " << sum;
  for (size_t b = 0; b < metrics::Histogram::kBuckets; ++b)
    os << " " << h.bucket_value(b);
  os << "\n";
}

namespace {

/// One `counter` or `hist` line into `r`; false if `key` is neither.
/// `seen` collects the names read (and "hist") for the missing check.
Result<bool> read_counter(const std::string& key, std::istream& ls,
                          EngineReport& r, std::set<std::string>& seen) {
  if (key == "counter") {
    std::string name;
    ls >> name;
    bool known = false, parsed = false;
    EngineReport::fields(
        [&](const char* declared, metrics::Merge, auto& v) {
          if (name != declared) return;
          known = true;
          parsed = static_cast<bool>(ls >> v);
        },
        r);
    if (!known) return Err("unknown counter '" + name + "'");
    if (!parsed) return Err("malformed counter '" + name + "'");
    if (!seen.insert(name).second) return Err("duplicate counter '" + name + "'");
    return true;
  }
  if (key != "hist") return false;
  uint64_t count = 0;
  int64_t min = 0, max = 0;
  std::string sum_text;
  std::array<uint64_t, metrics::Histogram::kBuckets> buckets{};
  if (!(ls >> count >> min >> max >> sum_text)) return Err("malformed histogram");
  char* end = nullptr;
  double sum = std::strtod(sum_text.c_str(), &end);
  if (end == sum_text.c_str() || *end != '\0')
    return Err("bad histogram sum '" + sum_text + "'");
  for (auto& b : buckets) ls >> b;
  if (!ls) return Err("malformed histogram");
  if (!seen.insert(key).second) return Err("duplicate histogram");
  r.latency_hist.restore_state(buckets, count, min, max, sum);
  return true;
}

}  // namespace

Result<void> read_keyed(const std::string& text, std::string_view magic,
                        const std::string& what, EngineReport& counters,
                        const KeyedRecordFn& record) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != magic)
    return Err("not a " + what + " (bad magic)");
  std::set<std::string> seen;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "end") {
      std::string missing;
      EngineReport::fields([&](const char* name, metrics::Merge) {
        if (missing.empty() && seen.count(name) == 0) missing = name;
      });
      if (!missing.empty()) return Err(what + ": missing counter '" + missing + "'");
      if (seen.count("hist") == 0) return Err(what + ": missing histogram");
      return Ok();
    }
    auto counter = read_counter(key, ls, counters, seen);
    if (!counter.ok()) return Err(what + ": " + counter.error().message);
    if (!*counter) LDP_TRY_VOID(record(key, ls));
    if (ls.fail()) return Err(what + ": malformed '" + key + "' line");
  }
  return Err(what + " truncated (no end marker)");
}

std::string serialize_checkpoint(const CheckpointState& state) {
  std::ostringstream os;
  os << kMagic << "\n";
  os << "trace " << state.trace_hash << " " << state.trace_queries << "\n";
  write_counters(os, state.partial);
  for (const auto& [ip, n] : state.sent) os << "sent " << ip << " " << n << "\n";
  for (const auto& [name, pos] : state.streams) {
    bool none = pos.origin_offset == fault::FaultStream::kNoOrigin;
    os << "stream " << name << " " << pos.packets << " " << pos.corrupt_words
       << " " << (none ? "none" : std::to_string(pos.origin_offset)) << "\n";
  }
  for (const auto& pq : state.pending) {
    os << "pending " << pq.record.source.to_string() << " "
       << transport_name(pq.transport) << " " << pq.retries_used << " "
       << pq.record.retries << " " << pq.record.trace_time << " "
       << pq.record.querier << " "
       << (pq.payload.empty() ? std::string("-") : base64_encode(pq.payload))
       << "\n";
  }
  os << "end\n";
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
  CheckpointState st;
  auto record = [&](const std::string& key, std::istream& ls) -> Result<void> {
    if (key == "trace") {
      ls >> st.trace_hash >> st.trace_queries;
    } else if (key == "sent") {
      std::string ip;
      uint64_t n = 0;
      ls >> ip >> n;
      st.sent[ip] = n;
    } else if (key == "stream") {
      std::string name, offset;
      fault::FaultStream::Position pos;
      ls >> name >> pos.packets >> pos.corrupt_words >> offset;
      if (offset != "none") {
        auto [end, ec] = std::from_chars(
            offset.data(), offset.data() + offset.size(), pos.origin_offset);
        if (ec != std::errc() || end != offset.data() + offset.size())
          return Err("checkpoint stream " + name + ": bad origin offset '" +
                     offset + "'");
      }
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
    return Ok();
  };
  LDP_TRY_VOID(read_keyed(text, kMagic, "checkpoint", st.partial, record));
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

#include "fault/fault.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/strings.hpp"

namespace ldp::fault {

std::string ImpairmentCounters::summary() const {
  std::ostringstream out;
  out << "processed " << processed << "  drop " << dropped << "  blackhole "
      << blackholed << "  flap " << flap_dropped << "  dup " << duplicated
      << "  corrupt " << corrupted << "  reorder " << reordered << "  delay "
      << delayed;
  return out.str();
}

bool FaultSpec::enabled() const {
  return drop > 0 || dup > 0 || reorder > 0 || corrupt > 0 || delay > 0 ||
         jitter > 0 || blackhole_end > blackhole_start ||
         (flap_period > 0 && flap_down > 0);
}

namespace {

// Durations print in the largest unit that divides them exactly, so
// to_string output parses back to the identical spec.
std::string duration_to_string(TimeNs ns) {
  if (ns % kSecond == 0) return std::to_string(ns / kSecond) + "s";
  if (ns % kMilli == 0) return std::to_string(ns / kMilli) + "ms";
  if (ns % kMicro == 0) return std::to_string(ns / kMicro) + "us";
  return std::to_string(ns) + "ns";
}

// Strict decimal parse: the whole of `text` must be one finite non-negative
// number — trailing garbage ("0.5x"), a second dot ("1.2.3"), a sign, or an
// empty string are all rejected so a typo'd knob fails loudly instead of
// silently replaying with a half-parsed value.
Result<double> parse_number(std::string_view text) {
  std::string buf(text);
  if (buf.empty() || !std::isdigit(static_cast<unsigned char>(buf[0])))
    return Err("bad number '" + buf + "'");
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE ||
      !std::isfinite(value) || value < 0)
    return Err("bad number '" + buf + "'");
  return value;
}

}  // namespace

Result<TimeNs> parse_duration(std::string_view text) {
  size_t i = 0;
  while (i < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[i])) || text[i] == '.'))
    ++i;
  if (i == 0) return Err("bad duration '" + std::string(text) + "'");
  auto parsed = parse_number(text.substr(0, i));
  if (!parsed.ok())
    return Err("bad duration '" + std::string(text) + "'");
  double value = *parsed;
  std::string_view unit = text.substr(i);
  double scale;
  if (unit.empty() || unit == "ms") {
    scale = static_cast<double>(kMilli);
  } else if (unit == "s") {
    scale = static_cast<double>(kSecond);
  } else if (unit == "us") {
    scale = static_cast<double>(kMicro);
  } else if (unit == "ns") {
    scale = 1;
  } else {
    return Err("bad duration unit '" + std::string(unit) + "'");
  }
  return static_cast<TimeNs>(value * scale);
}

namespace {

Result<double> parse_probability(std::string_view key, std::string_view text) {
  auto p = parse_number(text);
  if (!p.ok())
    return Err("bad value for " + std::string(key) + ": '" + std::string(text) + "'");
  if (*p > 1)
    return Err(std::string(key) + " must be a probability in [0,1], got '" +
               std::string(text) + "'");
  return *p;
}

std::string prob_to_string(double p) {
  std::ostringstream out;
  out << p;  // default precision round-trips the specs users actually write
  return out.str();
}

}  // namespace

std::string FaultSpec::to_string() const {
  std::ostringstream out;
  auto sep = [&out, first = true]() mutable {
    if (!first) out << ",";
    first = false;
  };
  if (drop > 0) {
    sep();
    out << "loss:" << prob_to_string(drop);
  }
  if (dup > 0) {
    sep();
    out << "dup:" << prob_to_string(dup);
  }
  if (reorder > 0) {
    sep();
    out << "reorder:" << prob_to_string(reorder) << ",gap:"
        << duration_to_string(reorder_gap);
  }
  if (corrupt > 0) {
    sep();
    out << "corrupt:" << prob_to_string(corrupt);
  }
  if (delay > 0) {
    sep();
    out << "delay:" << duration_to_string(delay);
  }
  if (jitter > 0) {
    sep();
    out << "jitter:" << duration_to_string(jitter);
  }
  if (blackhole_end > blackhole_start) {
    sep();
    out << "blackhole:" << duration_to_string(blackhole_start) << "-"
        << duration_to_string(blackhole_end);
  }
  if (flap_period > 0 && flap_down > 0) {
    sep();
    out << "flap:" << duration_to_string(flap_period) << "/"
        << duration_to_string(flap_down);
  }
  if (stall_querier >= 0) {
    sep();
    out << "querier_stall:" << stall_querier << "@"
        << duration_to_string(stall_after);
  }
  if (slow_client > 0) {
    sep();
    out << "slow_client:" << prob_to_string(slow_client) << ",drip:"
        << duration_to_string(slow_drip);
  }
  sep();
  out << "seed:" << seed;
  return out.str();
}

Result<FaultSpec> parse_fault_spec(std::string_view text) {
  FaultSpec spec;
  for (std::string_view item : split(text, ',')) {
    item = trim(item);
    if (item.empty()) continue;
    size_t colon = item.find(':');
    if (colon == std::string_view::npos)
      return Err("fault spec item '" + std::string(item) + "' needs key:value");
    std::string_view key = item.substr(0, colon);
    std::string_view value = item.substr(colon + 1);
    if (key == "loss" || key == "drop") {
      spec.drop = LDP_TRY(parse_probability(key, value));
    } else if (key == "dup") {
      spec.dup = LDP_TRY(parse_probability(key, value));
    } else if (key == "reorder") {
      spec.reorder = LDP_TRY(parse_probability(key, value));
    } else if (key == "corrupt") {
      spec.corrupt = LDP_TRY(parse_probability(key, value));
    } else if (key == "gap") {
      spec.reorder_gap = LDP_TRY(parse_duration(value));
    } else if (key == "delay") {
      spec.delay = LDP_TRY(parse_duration(value));
    } else if (key == "jitter") {
      spec.jitter = LDP_TRY(parse_duration(value));
    } else if (key == "blackhole") {
      size_t dash = value.find('-');
      if (dash == std::string_view::npos)
        return Err("blackhole wants start-end, got '" + std::string(value) + "'");
      spec.blackhole_start = LDP_TRY(parse_duration(value.substr(0, dash)));
      spec.blackhole_end = LDP_TRY(parse_duration(value.substr(dash + 1)));
      if (spec.blackhole_end <= spec.blackhole_start)
        return Err("blackhole window is empty: '" + std::string(value) + "'");
    } else if (key == "flap") {
      size_t slash = value.find('/');
      if (slash == std::string_view::npos)
        return Err("flap wants period/down, got '" + std::string(value) + "'");
      spec.flap_period = LDP_TRY(parse_duration(value.substr(0, slash)));
      spec.flap_down = LDP_TRY(parse_duration(value.substr(slash + 1)));
      if (spec.flap_period <= 0 || spec.flap_down <= 0 ||
          spec.flap_down >= spec.flap_period)
        return Err("flap needs 0 < down < period, got '" + std::string(value) + "'");
    } else if (key == "querier_stall") {
      // "<id>@<delay>"; the delay is optional (defaults to stall-at-start).
      std::string_view id_part = value;
      size_t at = value.find('@');
      if (at != std::string_view::npos) {
        id_part = value.substr(0, at);
        spec.stall_after = LDP_TRY(parse_duration(value.substr(at + 1)));
      }
      int64_t id = -1;
      auto [p, ec] =
          std::from_chars(id_part.data(), id_part.data() + id_part.size(), id);
      if (ec != std::errc{} || p != id_part.data() + id_part.size() || id < 0)
        return Err("querier_stall wants <querier-id>[@<delay>], got '" +
                   std::string(value) + "'");
      spec.stall_querier = id;
    } else if (key == "slow_client") {
      spec.slow_client = LDP_TRY(parse_probability(key, value));
    } else if (key == "drip") {
      spec.slow_drip = LDP_TRY(parse_duration(value));
      if (spec.slow_drip <= 0)
        return Err("drip wants a positive interval, got '" + std::string(value) + "'");
    } else if (key == "seed") {
      uint64_t s = 0;
      auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), s);
      if (ec != std::errc{} || p != value.data() + value.size())
        return Err("bad seed '" + std::string(value) + "'");
      spec.seed = s;
    } else {
      return Err("unknown fault spec key '" + std::string(key) + "'");
    }
  }
  return spec;
}

bool FaultSpec::is_slow_client(uint64_t conn_index) const {
  if (slow_client <= 0) return false;
  if (slow_client >= 1) return true;
  // Pure function of (seed, conn_index): one draw from a throwaway engine
  // seeded per connection, so no shared stream position is consumed and the
  // verdict is independent of accept order across server restarts.
  Rng rng(stream_seed(seed, "slow_client:" + std::to_string(conn_index)));
  return rng.uniform01() < slow_client;
}

uint64_t stream_seed(uint64_t base_seed, std::string_view name) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (char c : name) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  // splitmix-style final mix so nearby names land far apart.
  uint64_t z = base_seed ^ h;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

FaultStream::FaultStream(const FaultSpec& spec, std::string_view name)
    : spec_(spec),
      name_(name),
      decide_(stream_seed(spec.seed, name)),
      corrupt_(stream_seed(spec.seed + 0x9e3779b97f4a7c15ull, name)) {}

Verdict FaultStream::next(TimeNs now) {
  if (origin_ < 0) origin_ = now;
  ++counters_.processed;

  // Fixed draw schedule (determinism contract): five uniforms per packet,
  // consumed whether or not their impairment is configured or wins.
  double d_drop = decide_.uniform01();
  double d_dup = decide_.uniform01();
  double d_corrupt = decide_.uniform01();
  double d_reorder = decide_.uniform01();
  double d_jitter = decide_.uniform01();

  Verdict v;
  TimeNs offset = now - origin_;
  if (spec_.blackhole_end > spec_.blackhole_start &&
      offset >= spec_.blackhole_start && offset < spec_.blackhole_end) {
    ++counters_.blackholed;
    v.action = Action::Drop;
    v.reason = DropReason::Blackhole;
    return v;
  }
  if (spec_.flap_period > 0 && spec_.flap_down > 0 &&
      offset % spec_.flap_period < spec_.flap_down) {
    ++counters_.flap_dropped;
    v.action = Action::Drop;
    v.reason = DropReason::Flap;
    return v;
  }
  if (d_drop < spec_.drop) {
    ++counters_.dropped;
    v.action = Action::Drop;
    v.reason = DropReason::Loss;
    return v;
  }
  if (d_dup < spec_.dup) {
    ++counters_.duplicated;
    v.action = Action::Duplicate;
  } else if (d_corrupt < spec_.corrupt) {
    ++counters_.corrupted;
    v.action = Action::Corrupt;
  }
  if (d_reorder < spec_.reorder) {
    ++counters_.reordered;
    v.extra_delay += spec_.reorder_gap;
  }
  if (spec_.delay > 0 || spec_.jitter > 0) {
    v.extra_delay += spec_.delay +
                     static_cast<TimeNs>(d_jitter * static_cast<double>(spec_.jitter));
    ++counters_.delayed;
  }
  return v;
}

void FaultStream::corrupt(std::vector<uint8_t>& payload) {
  if (payload.empty()) return;
  // Fixed-consumption draws (one engine word each, via modulo) so the exact
  // number of words this call ate is known — checkpoint/resume fast-forwards
  // the corruption engine by word count. Modulo bias is irrelevant here:
  // corruption only needs to be deterministic, not uniform.
  auto draw = [this](uint64_t lo, uint64_t hi) {
    ++corrupt_words_;
    return lo + corrupt_.next_u64() % (hi - lo + 1);
  };
  size_t flips = 1 + draw(0, spec_.corrupt_max_bytes > 0
                                 ? spec_.corrupt_max_bytes - 1
                                 : 0);
  for (size_t i = 0; i < flips; ++i) {
    size_t pos = draw(0, payload.size() - 1);
    // XOR with a non-zero byte so the packet always actually changes.
    payload[pos] ^= static_cast<uint8_t>(draw(1, 255));
  }
}

FaultStream::Position FaultStream::position(TimeNs real_origin) const {
  Position pos;
  pos.packets = packets_base_ + counters_.processed;
  pos.corrupt_words = corrupt_words_base_ + corrupt_words_;
  pos.origin_offset = origin_ < 0 ? kNoOrigin : origin_ - real_origin;
  return pos;
}

void FaultStream::restore(const Position& pos, TimeNs real_origin) {
  // Burn the decision draws through the same call path next() uses (five
  // uniform01 per packet), so engine-word consumption matches exactly no
  // matter how the standard library implements the distribution.
  for (uint64_t i = 0; i < pos.packets * 5; ++i) decide_.uniform01();
  corrupt_.engine().discard(pos.corrupt_words);
  packets_base_ = pos.packets;
  corrupt_words_base_ = pos.corrupt_words;
  if (pos.origin_offset != kNoOrigin) origin_ = real_origin + pos.origin_offset;
}

}  // namespace ldp::fault

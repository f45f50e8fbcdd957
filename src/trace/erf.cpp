#include "trace/erf.hpp"

#include <cstdio>

#include "trace/packet.hpp"

namespace ldp::trace {

namespace {
constexpr uint8_t kTypeEth = 2;
constexpr uint8_t kTypeMask = 0x7f;
constexpr uint8_t kExtHeaderBit = 0x80;

// ERF timestamps: little-endian 64-bit fixed point, 32.32, Unix epoch.
TimeNs erf_ts_to_ns(uint64_t ts) {
  uint64_t seconds = ts >> 32;
  uint64_t frac = ts & 0xffffffffull;
  // frac / 2^32 seconds -> ns, rounding to nearest.
  uint64_t ns = (frac * 1000000000ull + (1ull << 31)) >> 32;
  return static_cast<TimeNs>(seconds * 1000000000ull + ns);
}

uint64_t ns_to_erf_ts(TimeNs t) {
  uint64_t seconds = static_cast<uint64_t>(t) / 1000000000ull;
  uint64_t ns = static_cast<uint64_t>(t) % 1000000000ull;
  uint64_t frac = (ns << 32) / 1000000000ull;
  return seconds << 32 | frac;
}
}  // namespace

Result<ErfReader> ErfReader::open(const std::string& path) {
  return from_input(LDP_TRY(InputBytes::map_file(path)));
}

Result<ErfReader> ErfReader::from_bytes(std::vector<uint8_t> bytes) {
  return from_input(InputBytes(std::move(bytes)));
}

Result<ErfReader> ErfReader::from_input(InputBytes bytes) {
  ErfReader rd;
  rd.bytes_ = std::move(bytes);
  // ERF has no file header; sanity-check the first record if any.
  if (rd.bytes_.size() > 0 && rd.bytes_.size() < 16)
    return Err("not an ERF stream (shorter than one record header)");
  return rd;
}

Result<std::optional<TraceRecord>> ErfReader::next() {
  while (true) {
    if (!pending_.empty()) {
      TraceRecord rec = std::move(pending_.front());
      pending_.pop_front();
      return std::optional<TraceRecord>{std::move(rec)};
    }
    if (pos_ >= bytes_.size()) return std::optional<TraceRecord>{};
    ByteReader rd(bytes_.span().subspan(pos_));
    if (rd.remaining() < 16) return Err("truncated ERF record header");

    uint64_t ts_lo = LDP_TRY(rd.u32_le());
    uint64_t ts_hi = LDP_TRY(rd.u32_le());
    uint64_t ts = ts_hi << 32 | ts_lo;
    uint8_t type = LDP_TRY(rd.u8());
    LDP_TRY_VOID(rd.u8());  // flags
    uint16_t rlen = LDP_TRY(rd.u16());
    LDP_TRY_VOID(rd.u16());  // lctr / color
    LDP_TRY_VOID(rd.u16());  // wlen
    if (rlen < 16 || rd.remaining() < static_cast<size_t>(rlen) - 16)
      return Err("truncated ERF record");
    auto payload = LDP_TRY(rd.bytes(static_cast<size_t>(rlen) - 16));
    pos_ += 16 + payload.size();

    // Extension headers: 8 bytes each, chained by the top bit.
    size_t off = 0;
    if (type & kExtHeaderBit) {
      while (true) {
        if (off + 8 > payload.size()) {
          off = payload.size();  // malformed; treated as non-DNS below
          break;
        }
        uint8_t ext_type = payload[off];
        off += 8;
        if ((ext_type & kExtHeaderBit) == 0) break;
      }
    }
    if ((type & kTypeMask) != kTypeEth || payload.size() < off + 2 + 14) {
      ++skipped_;
      continue;
    }
    // ETH records: 2-byte pad/offset, then the Ethernet frame.
    auto frame = payload.subspan(off + 2);
    uint16_t ethertype = static_cast<uint16_t>(frame[12] << 8 | frame[13]);
    if (ethertype != 0x0800 && ethertype != 0x86dd) {
      ++skipped_;
      continue;
    }
    TraceRecord rec;
    switch (classify_ip_packet(frame.subspan(14), erf_ts_to_ns(ts), rec, segment_)) {
      case PacketKind::UdpDns:
        return std::optional<TraceRecord>{std::move(rec)};
      case PacketKind::TcpDns: {
        auto completed = reassembler_.feed(segment_);
        if (completed.empty()) continue;
        for (size_t i = 1; i < completed.size(); ++i)
          pending_.push_back(std::move(completed[i]));
        return std::optional<TraceRecord>{std::move(completed[0])};
      }
      case PacketKind::Other:
        ++skipped_;
    }
  }
}

Result<std::vector<TraceRecord>> ErfReader::read_all() {
  std::vector<TraceRecord> out;
  while (true) {
    auto rec = LDP_TRY(next());
    if (!rec.has_value()) return out;
    out.push_back(std::move(*rec));
  }
}

void ErfWriter::add(const TraceRecord& rec) {
  uint32_t seq = rec.transport == Transport::Udp
                     ? 1
                     : seq_alloc_.allocate(rec.src, rec.dst,
                                           rec.dns_payload.size() + 2);
  auto packet = build_ip_packet(rec, seq);
  const bool v4 = rec.src.addr.is_v4();

  // Ethernet frame: dummy MACs + ethertype + IP packet.
  ByteWriter frame;
  for (int i = 0; i < 12; ++i) frame.u8(0);
  frame.u16(v4 ? 0x0800 : 0x86dd);
  frame.bytes(std::span<const uint8_t>(packet));

  uint64_t ts = ns_to_erf_ts(rec.timestamp);
  uint16_t rlen = static_cast<uint16_t>(16 + 2 + frame.size());
  w_.u32_le(static_cast<uint32_t>(ts & 0xffffffffull));
  w_.u32_le(static_cast<uint32_t>(ts >> 32));
  w_.u8(kTypeEth);
  w_.u8(0);  // flags: varying record length, interface 0
  w_.u16(rlen);
  w_.u16(0);  // lctr
  w_.u16(static_cast<uint16_t>(frame.size()));  // wlen
  w_.u16(0);  // pad/offset
  w_.bytes(frame.data());
  ++count_;
}

std::vector<uint8_t> ErfWriter::take() && { return std::move(w_).take(); }

Result<void> ErfWriter::save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Err("cannot write " + path);
  auto data = w_.data();
  size_t wrote = std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (wrote != data.size()) return Err("short write on " + path);
  return Ok();
}

}  // namespace ldp::trace

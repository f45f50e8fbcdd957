#include "trace/pcap.hpp"

#include <cstring>

#include "trace/packet.hpp"

namespace ldp::trace {

namespace {
constexpr uint32_t kMagicMicro = 0xa1b2c3d4;
constexpr uint32_t kMagicNano = 0xa1b23c4d;
constexpr uint32_t kLinktypeEthernet = 1;
constexpr uint32_t kLinktypeRawIp = 101;
}  // namespace

uint16_t inet_checksum(std::span<const uint8_t> data) {
  uint32_t sum = 0;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) sum += static_cast<uint32_t>(data[i]) << 8 | data[i + 1];
  if (i < data.size()) sum += static_cast<uint32_t>(data[i]) << 8;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<uint16_t>(~sum);
}

uint16_t udp4_checksum(Ip4 src, Ip4 dst, std::span<const uint8_t> udp_segment) {
  ByteWriter pseudo;
  pseudo.u32(src.value());
  pseudo.u32(dst.value());
  pseudo.u8(0);
  pseudo.u8(17);  // protocol UDP
  pseudo.u16(static_cast<uint16_t>(udp_segment.size()));
  pseudo.bytes(udp_segment);
  uint16_t sum = inet_checksum(pseudo.data());
  return sum == 0 ? 0xffff : sum;  // 0 means "no checksum" in UDP
}

Result<PcapReader> PcapReader::open(const std::string& path) {
  return from_input(LDP_TRY(InputBytes::map_file(path)));
}

Result<PcapReader> PcapReader::from_bytes(std::vector<uint8_t> bytes) {
  return from_input(InputBytes(std::move(bytes)));
}

Result<PcapReader> PcapReader::from_input(InputBytes bytes) {
  PcapReader rd;
  rd.bytes_ = std::move(bytes);
  ByteReader hdr(rd.bytes_.span());
  uint32_t magic = LDP_TRY(hdr.u32_le());
  if (magic == kMagicMicro) {
    rd.nanosecond_ts_ = false;
  } else if (magic == kMagicNano) {
    rd.nanosecond_ts_ = true;
  } else {
    return Err("not a pcap file (bad magic)");
  }
  LDP_TRY_VOID(hdr.skip(2 + 2 + 4 + 4 + 4));  // version, thiszone, sigfigs, snaplen
  rd.linktype_ = LDP_TRY(hdr.u32_le());
  if (rd.linktype_ != kLinktypeEthernet && rd.linktype_ != kLinktypeRawIp)
    return Err("unsupported pcap linktype " + std::to_string(rd.linktype_));
  rd.pos_ = hdr.pos();
  return rd;
}

Result<std::optional<TraceRecord>> PcapReader::next() {
  TraceRecord rec;
  if (!LDP_TRY(next_into(rec))) return std::optional<TraceRecord>{};
  return std::optional<TraceRecord>{std::move(rec)};
}

Result<bool> PcapReader::next_into(TraceRecord& rec) {
  while (true) {
    if (!pending_.empty()) {
      rec = std::move(pending_.front());
      pending_.pop_front();
      return true;
    }
    if (pos_ >= bytes_.size()) return false;
    ByteReader rd(bytes_.span().subspan(pos_));
    if (rd.remaining() < 16) return Err("truncated pcap record header");
    uint32_t ts_sec = LDP_TRY(rd.u32_le());
    uint32_t ts_frac = LDP_TRY(rd.u32_le());
    uint32_t incl_len = LDP_TRY(rd.u32_le());
    LDP_TRY_VOID(rd.u32_le());  // orig_len
    if (rd.remaining() < incl_len) return Err("truncated pcap packet");
    auto packet = LDP_TRY(rd.bytes(incl_len));
    pos_ += rd.pos();

    TimeNs ts = static_cast<TimeNs>(ts_sec) * kSecond +
                (nanosecond_ts_ ? ts_frac : static_cast<TimeNs>(ts_frac) * 1000);

    // Peel the link layer for Ethernet captures.
    if (linktype_ == kLinktypeEthernet) {
      if (packet.size() < 14) {
        ++skipped_;
        continue;
      }
      uint16_t ethertype = static_cast<uint16_t>(packet[12] << 8 | packet[13]);
      if (ethertype != 0x0800 && ethertype != 0x86dd) {
        ++skipped_;
        continue;
      }
      packet = packet.subspan(14);
    }

    switch (classify_ip_packet(packet, ts, rec, segment_)) {
      case PacketKind::UdpDns:
        return true;
      case PacketKind::TcpDns: {
        auto completed = reassembler_.feed(segment_);
        if (completed.empty()) continue;  // segment consumed, nothing finished
        for (size_t i = 1; i < completed.size(); ++i)
          pending_.push_back(std::move(completed[i]));
        rec = std::move(completed[0]);
        return true;
      }
      case PacketKind::Other:
        ++skipped_;
    }
  }
}

size_t PcapReader::packets_left() const {
  ByteReader rd(bytes_.span().subspan(pos_));
  size_t n = 0;
  while (rd.remaining() >= 16) {
    (void)rd.skip(8);  // ts_sec, ts_frac
    uint32_t incl_len = *rd.u32_le();
    (void)rd.skip(4);  // orig_len
    if (!rd.skip(incl_len).ok()) break;
    ++n;
  }
  return n;
}

Result<std::vector<TraceRecord>> PcapReader::read_all() {
  std::vector<TraceRecord> out;
  out.reserve(packets_left() + pending_.size());
  while (true) {
    TraceRecord rec;
    if (!LDP_TRY(next_into(rec))) return out;
    out.push_back(std::move(rec));
  }
}

PcapWriter::PcapWriter() {
  w_.u32_le(kMagicMicro);
  w_.u16_le(2);  // version 2.4
  w_.u16_le(4);
  w_.u32_le(0);  // thiszone
  w_.u32_le(0);  // sigfigs
  w_.u32_le(65535);
  w_.u32_le(kLinktypeRawIp);
}

void PcapWriter::add(const TraceRecord& rec) {
  uint32_t seq = rec.transport == Transport::Udp
                     ? 1
                     : seq_alloc_.allocate(rec.src, rec.dst,
                                           rec.dns_payload.size() + 2);
  auto packet = build_ip_packet(rec, seq);
  w_.u32_le(static_cast<uint32_t>(rec.timestamp / kSecond));
  w_.u32_le(static_cast<uint32_t>((rec.timestamp % kSecond) / 1000));
  w_.u32_le(static_cast<uint32_t>(packet.size()));
  w_.u32_le(static_cast<uint32_t>(packet.size()));
  w_.bytes(std::span<const uint8_t>(packet));
  ++count_;
}

std::vector<uint8_t> PcapWriter::take() && { return std::move(w_).take(); }

Result<void> PcapWriter::save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Err("cannot write " + path);
  auto data = w_.data();
  size_t wrote = std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (wrote != data.size()) return Err("short write on " + path);
  return Ok();
}

}  // namespace ldp::trace

#include "trace/packet.hpp"

#include <algorithm>
#include <array>

#include "trace/pcap.hpp"  // checksum helpers

namespace ldp::trace {

namespace {
constexpr uint16_t kDnsPort = 53;
constexpr uint16_t kDotPort = 853;  // DNS over TLS

bool is_dns_port(uint16_t sport, uint16_t dport) {
  return sport == kDnsPort || dport == kDnsPort || sport == kDotPort ||
         dport == kDotPort;
}

Transport transport_for(uint16_t sport, uint16_t dport) {
  return (sport == kDotPort || dport == kDotPort) ? Transport::Tls : Transport::Tcp;
}

Direction direction_for(uint16_t sport) {
  return (sport == kDnsPort || sport == kDotPort) ? Direction::Response
                                                  : Direction::Query;
}

// Strict parser; the public wrapper converts failures into "skip".
Result<PacketKind> classify_strict(std::span<const uint8_t> packet, TimeNs ts,
                                   TraceRecord& rec, TcpSegment& seg) {
  ByteReader pkt(packet);
  if (pkt.remaining() < 1) return Err("empty packet");
  uint8_t ver = static_cast<uint8_t>(packet[pkt.pos()] >> 4);

  IpAddr src_addr, dst_addr;
  uint8_t ip_proto = 0;
  if (ver == 4) {
    if (pkt.remaining() < 20) return Err("short IPv4 header");
    uint8_t vihl = LDP_TRY(pkt.u8());
    size_t ihl = static_cast<size_t>(vihl & 0xf) * 4;
    if (ihl < 20) return Err("bad IHL");
    LDP_TRY_VOID(pkt.skip(7));  // tos, total length, id, frag
    LDP_TRY_VOID(pkt.u8());     // ttl
    ip_proto = LDP_TRY(pkt.u8());
    LDP_TRY_VOID(pkt.u16());  // checksum
    src_addr = IpAddr{Ip4{LDP_TRY(pkt.u32())}};
    dst_addr = IpAddr{Ip4{LDP_TRY(pkt.u32())}};
    if (ihl > 20) LDP_TRY_VOID(pkt.skip(ihl - 20));
  } else if (ver == 6) {
    if (pkt.remaining() < 40) return Err("short IPv6 header");
    LDP_TRY_VOID(pkt.skip(4));  // version/class/flow
    LDP_TRY_VOID(pkt.u16());    // payload length
    ip_proto = LDP_TRY(pkt.u8());
    LDP_TRY_VOID(pkt.u8());  // hop limit
    std::array<uint8_t, 16> s, d;
    auto sb = LDP_TRY(pkt.bytes(16));
    std::copy(sb.begin(), sb.end(), s.begin());
    auto db = LDP_TRY(pkt.bytes(16));
    std::copy(db.begin(), db.end(), d.begin());
    src_addr = IpAddr{Ip6{s}};
    dst_addr = IpAddr{Ip6{d}};
  } else {
    return Err("not IP");
  }

  if (ip_proto == 17) {  // UDP
    if (pkt.remaining() < 8) return Err("short UDP header");
    uint16_t sport = LDP_TRY(pkt.u16());
    uint16_t dport = LDP_TRY(pkt.u16());
    uint16_t udp_len = LDP_TRY(pkt.u16());
    LDP_TRY_VOID(pkt.u16());  // checksum
    if (!is_dns_port(sport, dport) || udp_len < 8) return Err("not DNS UDP");
    size_t payload_len = std::min<size_t>(udp_len - 8, pkt.remaining());
    if (payload_len < 12) return Err("shorter than a DNS header");
    auto payload = LDP_TRY(pkt.bytes(payload_len));
    rec.timestamp = ts;
    rec.dns_payload.assign(payload.begin(), payload.end());
    rec.transport = Transport::Udp;
    rec.src = Endpoint{src_addr, sport};
    rec.dst = Endpoint{dst_addr, dport};
    rec.direction = direction_for(sport);
    return PacketKind::UdpDns;
  }
  if (ip_proto == 6) {  // TCP: hand the segment to the reassembler
    if (pkt.remaining() < 20) return Err("short TCP header");
    seg.timestamp = ts;
    uint16_t sport = LDP_TRY(pkt.u16());
    uint16_t dport = LDP_TRY(pkt.u16());
    if (!is_dns_port(sport, dport)) return Err("not DNS TCP");
    seg.seq = LDP_TRY(pkt.u32());
    LDP_TRY_VOID(pkt.u32());  // ack
    uint8_t offset_byte = LDP_TRY(pkt.u8());
    size_t header_len = static_cast<size_t>(offset_byte >> 4) * 4;
    uint8_t flags = LDP_TRY(pkt.u8());
    seg.syn = (flags & 0x02) != 0;
    seg.fin = (flags & 0x01) != 0;
    seg.rst = (flags & 0x04) != 0;
    if (header_len < 20 || pkt.remaining() < header_len - 14)
      return Err("bad TCP header length");
    LDP_TRY_VOID(pkt.skip(header_len - 14));  // rest of the TCP header
    auto payload = LDP_TRY(pkt.bytes(pkt.remaining()));
    seg.payload.assign(payload.begin(), payload.end());
    seg.src = Endpoint{src_addr, sport};
    seg.dst = Endpoint{dst_addr, dport};
    return PacketKind::TcpDns;
  }
  return Err("not UDP/TCP");
}

}  // namespace

PacketKind classify_ip_packet(std::span<const uint8_t> packet, TimeNs timestamp,
                              TraceRecord& udp, TcpSegment& tcp) {
  auto kind = classify_strict(packet, timestamp, udp, tcp);
  return kind.ok() ? *kind : PacketKind::Other;
}

std::vector<TraceRecord> TcpReassembler::feed(const TcpSegment& segment) {
  std::vector<TraceRecord> out;
  auto key = std::make_pair(segment.src, segment.dst);

  if (segment.rst) {
    flows_.erase(key);
    return out;
  }
  if (segment.syn) {
    Flow& flow = flows_[key];
    flow.have_seq = true;
    flow.next_seq = segment.seq + 1;  // SYN consumes one sequence number
    flow.buffer.clear();
    return out;
  }

  Flow& flow = flows_[key];
  if (!segment.payload.empty()) {
    if (!flow.have_seq) {
      // Mid-stream capture start: adopt this segment's position.
      flow.have_seq = true;
      flow.next_seq = segment.seq;
    }
    // Sequence comparison in modular arithmetic.
    int32_t delta = static_cast<int32_t>(segment.seq - flow.next_seq);
    if (delta == 0) {
      flow.buffer.insert(flow.buffer.end(), segment.payload.begin(),
                         segment.payload.end());
      flow.next_seq += static_cast<uint32_t>(segment.payload.size());
    } else if (delta < 0) {
      // Retransmission; keep only bytes beyond what we already have.
      size_t overlap = static_cast<size_t>(-delta);
      if (overlap < segment.payload.size()) {
        flow.buffer.insert(flow.buffer.end(), segment.payload.begin() + overlap,
                           segment.payload.end());
        flow.next_seq += static_cast<uint32_t>(segment.payload.size() - overlap);
      }
      // Pure duplicate: nothing to do.
    } else {
      // Gap (loss or reordering): drop; the flow resynchronizes on FIN/RST
      // or a new connection.
      ++dropped_;
    }

    // Extract complete length-prefixed DNS messages.
    size_t pos = 0;
    while (flow.buffer.size() - pos >= 2) {
      size_t frame = static_cast<size_t>(flow.buffer[pos]) << 8 | flow.buffer[pos + 1];
      if (flow.buffer.size() - pos - 2 < frame) break;
      if (frame >= 12) {
        TraceRecord rec;
        rec.timestamp = segment.timestamp;
        rec.src = segment.src;
        rec.dst = segment.dst;
        rec.transport = transport_for(segment.src.port, segment.dst.port);
        rec.direction = direction_for(segment.src.port);
        rec.dns_payload.assign(flow.buffer.begin() + static_cast<long>(pos + 2),
                               flow.buffer.begin() + static_cast<long>(pos + 2 + frame));
        out.push_back(std::move(rec));
      }
      pos += 2 + frame;
    }
    flow.buffer.erase(flow.buffer.begin(), flow.buffer.begin() + static_cast<long>(pos));
  }

  if (segment.fin) flows_.erase(key);
  return out;
}

std::vector<uint8_t> build_ip_packet(const TraceRecord& rec, uint32_t tcp_seq) {
  ByteWriter ip;
  const bool v4 = rec.src.addr.is_v4();

  // Transport payload: UDP header+DNS, or a minimal TCP data segment with
  // the 2-byte DNS length prefix.
  ByteWriter seg;
  if (rec.transport == Transport::Udp) {
    seg.u16(rec.src.port);
    seg.u16(rec.dst.port);
    seg.u16(static_cast<uint16_t>(8 + rec.dns_payload.size()));
    seg.u16(0);  // checksum patched below for v4
    seg.bytes(std::span<const uint8_t>(rec.dns_payload));
  } else {
    seg.u16(rec.src.port);
    seg.u16(rec.dst.port);
    seg.u32(tcp_seq);
    seg.u32(1);  // ack
    seg.u8(5 << 4);
    seg.u8(0x18);  // PSH|ACK
    seg.u16(65535);
    seg.u16(0);  // checksum (not validated by our readers)
    seg.u16(0);  // urgent
    seg.u16(static_cast<uint16_t>(rec.dns_payload.size()));
    seg.bytes(std::span<const uint8_t>(rec.dns_payload));
  }
  auto segment = std::move(seg).take();

  if (v4) {
    uint8_t proto = rec.transport == Transport::Udp ? 17 : 6;
    ByteWriter hdr;
    hdr.u8(0x45);
    hdr.u8(0);
    hdr.u16(static_cast<uint16_t>(20 + segment.size()));
    hdr.u16(0);
    hdr.u16(0x4000);  // don't fragment
    hdr.u8(64);
    hdr.u8(proto);
    hdr.u16(0);  // checksum below
    hdr.u32(rec.src.addr.v4().value());
    hdr.u32(rec.dst.addr.v4().value());
    auto hdr_bytes = std::move(hdr).take();
    uint16_t csum = inet_checksum(hdr_bytes);
    hdr_bytes[10] = static_cast<uint8_t>(csum >> 8);
    hdr_bytes[11] = static_cast<uint8_t>(csum);

    if (rec.transport == Transport::Udp) {
      uint16_t ucsum = udp4_checksum(rec.src.addr.v4(), rec.dst.addr.v4(), segment);
      segment[6] = static_cast<uint8_t>(ucsum >> 8);
      segment[7] = static_cast<uint8_t>(ucsum);
    }
    ip.bytes(std::span<const uint8_t>(hdr_bytes));
    ip.bytes(std::span<const uint8_t>(segment));
  } else {
    ip.u8(0x60);
    ip.u8(0);
    ip.u16(0);  // flow
    ip.u16(static_cast<uint16_t>(segment.size()));
    ip.u8(rec.transport == Transport::Udp ? 17 : 6);
    ip.u8(64);
    ip.bytes(std::span<const uint8_t>(rec.src.addr.v6().bytes()));
    ip.bytes(std::span<const uint8_t>(rec.dst.addr.v6().bytes()));
    ip.bytes(std::span<const uint8_t>(segment));
  }
  return std::move(ip).take();
}

}  // namespace ldp::trace

// Shared IP-layer packet codec for the capture formats (pcap, ERF): builds
// raw IPv4/IPv6 packets carrying UDP or framed-TCP DNS payloads, classifies
// captured packets, and reassembles DNS messages out of TCP streams.
#pragma once

#include <map>

#include "trace/record.hpp"

namespace ldp::trace {

/// Serialize a record as a raw IP packet (IPv4 with header/UDP checksums
/// filled in, or IPv6). TCP records become one PSH|ACK data segment with
/// the 2-byte DNS length prefix, starting at `tcp_seq` (use a
/// TcpSeqAllocator so successive messages on one flow carry cumulative
/// sequence numbers the reassembler accepts).
std::vector<uint8_t> build_ip_packet(const TraceRecord& rec, uint32_t tcp_seq = 1);

/// Per-flow cumulative TCP sequence numbers for capture writers.
class TcpSeqAllocator {
 public:
  /// Sequence number for the next `len` payload bytes on (src -> dst).
  uint32_t allocate(const Endpoint& src, const Endpoint& dst, size_t len) {
    auto [it, inserted] = next_.try_emplace(std::make_pair(src, dst), 1u);
    uint32_t seq = it->second;
    it->second += static_cast<uint32_t>(len);
    return seq;
  }

 private:
  std::map<std::pair<Endpoint, Endpoint>, uint32_t> next_;
};

/// One captured TCP segment on a DNS port, awaiting reassembly.
struct TcpSegment {
  Endpoint src;
  Endpoint dst;
  uint32_t seq = 0;
  bool syn = false;
  bool fin = false;
  bool rst = false;
  std::vector<uint8_t> payload;
  TimeNs timestamp = 0;
};

/// What one captured IP packet carries.
enum class PacketKind : uint8_t {
  Other,   ///< not DNS we understand (skip it)
  UdpDns,  ///< a whole DNS message over UDP
  TcpDns,  ///< a TCP segment on a DNS port, for the reassembler
};

/// Parse the IP layer of a captured packet. Never fails hard: anything
/// unparseable is Other. UdpDns overwrites every field of `udp`; TcpDns
/// overwrites every field of `tcp`. Decoding into the caller's objects lets
/// a reader build each record in its final place, with no moves between.
PacketKind classify_ip_packet(std::span<const uint8_t> packet, TimeNs timestamp,
                              TraceRecord& udp, TcpSegment& tcp);

/// In-order TCP stream reassembly for DNS captures. Tracks one buffer per
/// (src, dst) flow direction, strips the 2-byte length framing, and emits a
/// TraceRecord per complete DNS message (stamped with the timestamp of the
/// segment that completed it). Out-of-order and gapped segments are dropped
/// and counted — replay fidelity prefers losing a message over corrupting
/// the stream.
class TcpReassembler {
 public:
  /// Feed one segment; returns any messages it completed.
  std::vector<TraceRecord> feed(const TcpSegment& segment);

  uint64_t dropped_segments() const { return dropped_; }
  size_t active_flows() const { return flows_.size(); }

 private:
  struct Flow {
    bool have_seq = false;
    uint32_t next_seq = 0;
    std::vector<uint8_t> buffer;
  };

  std::map<std::pair<Endpoint, Endpoint>, Flow> flows_;
  uint64_t dropped_ = 0;
};

}  // namespace ldp::trace

// Self-contained pcap (libpcap classic format) reader/writer for DNS
// traffic. LDplayer's input engine accepts network traces directly
// (Figure 3, "pcap, erf ..."); this codec covers the pcap side without an
// external libpcap dependency.
//
// Scope: linktype RAW-IP (101) and Ethernet (1); IPv4 and IPv6; UDP
// datagrams and DNS-over-TCP with full in-order stream reassembly (messages
// spanning segments, several messages per segment, length prefixes split
// across segments). Malformed or non-DNS packets are skipped and counted,
// not fatal — real captures always contain junk.
#pragma once

#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "trace/input_bytes.hpp"
#include "trace/packet.hpp"
#include "trace/record.hpp"

namespace ldp::trace {

/// Streams records out of a pcap file.
class PcapReader {
 public:
  /// Maps the file read-only and validates the global header.
  static Result<PcapReader> open(const std::string& path);

  /// Parse from an in-memory buffer (tests and composed pipelines).
  static Result<PcapReader> from_bytes(std::vector<uint8_t> bytes);

  /// Next DNS record, or nullopt at EOF. Packets that are not parseable
  /// DNS-over-UDP/TCP are skipped (see skipped()).
  Result<std::optional<TraceRecord>> next();

  /// Drain the remaining stream.
  Result<std::vector<TraceRecord>> read_all();

  uint64_t skipped() const { return skipped_; }

 private:
  PcapReader() = default;
  static Result<PcapReader> from_input(InputBytes bytes);
  /// Decode the next DNS record into `rec`; false at EOF.
  Result<bool> next_into(TraceRecord& rec);
  /// Packets left in the file, counted from the record headers alone.
  size_t packets_left() const;

  InputBytes bytes_;
  size_t pos_ = 0;
  uint32_t linktype_ = 0;
  bool nanosecond_ts_ = false;
  uint64_t skipped_ = 0;
  TcpReassembler reassembler_;
  TcpSegment segment_;               // decode scratch for TCP packets
  std::deque<TraceRecord> pending_;  // extra messages one segment completed
};

/// Writes records as a pcap file (RAW-IP linktype, microsecond timestamps).
class PcapWriter {
 public:
  /// In-memory writer; call take() for the bytes or save() for a file.
  PcapWriter();

  void add(const TraceRecord& rec);

  std::vector<uint8_t> take() &&;
  Result<void> save(const std::string& path) const;

  size_t record_count() const { return count_; }

 private:
  ByteWriter w_;
  size_t count_ = 0;
  TcpSeqAllocator seq_alloc_;
};

/// IP-style ones-complement checksum over a byte range (used for the IPv4
/// header and the UDP pseudo-header checksum the proxies must fix after
/// rewriting addresses, §2.4).
uint16_t inet_checksum(std::span<const uint8_t> data);

/// UDP checksum including the IPv4 pseudo-header.
uint16_t udp4_checksum(Ip4 src, Ip4 dst, std::span<const uint8_t> udp_segment);

}  // namespace ldp::trace

// ERF (Endace Extensible Record Format) reader — the other capture format
// Figure 3 names ("pcap, erf ..."). DITL root collections are distributed
// as ERF, so a trace front end without it couldn't read the paper's own
// inputs.
//
// Scope mirrors the pcap codec: type 2 (ETH) records carrying IPv4/IPv6
// UDP DNS and DNS-over-TCP with stream reassembly; anything else is
// skipped and counted. ERF specifics handled here: the 64-bit little-endian fixed-
// point timestamp (32.32 since the Unix epoch), big-endian rlen/wlen, the
// 2-byte ethernet pad, and extension headers flagged by bit 7 of `flags`.
#pragma once

#include <deque>
#include <optional>
#include <string>

#include "trace/input_bytes.hpp"
#include "trace/packet.hpp"
#include "trace/record.hpp"

namespace ldp::trace {

class ErfReader {
 public:
  static Result<ErfReader> open(const std::string& path);
  static Result<ErfReader> from_bytes(std::vector<uint8_t> bytes);

  /// Next DNS record, or nullopt at EOF; non-DNS records are skipped.
  Result<std::optional<TraceRecord>> next();
  Result<std::vector<TraceRecord>> read_all();

  uint64_t skipped() const { return skipped_; }

 private:
  ErfReader() = default;
  static Result<ErfReader> from_input(InputBytes bytes);

  InputBytes bytes_;
  size_t pos_ = 0;
  uint64_t skipped_ = 0;
  TcpReassembler reassembler_;
  TcpSegment segment_;  // decode scratch for TCP packets
  std::deque<TraceRecord> pending_;
};

/// Writes ERF type-2 (ETH) records; the inverse of ErfReader, used by the
/// round-trip tests and the trace converter.
class ErfWriter {
 public:
  void add(const TraceRecord& rec);
  std::vector<uint8_t> take() &&;
  Result<void> save(const std::string& path) const;
  size_t record_count() const { return count_; }

 private:
  ByteWriter w_;
  size_t count_ = 0;
  TcpSeqAllocator seq_alloc_;
};

}  // namespace ldp::trace

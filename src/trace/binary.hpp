// Customized binary stream of internal messages (§2.5 "Binary for fast
// processing"): the pre-processed replay input. Each message is
// length-prefixed so the reader can stream without parsing DNS payloads,
// which is what lets the input engine keep up with fast traces.
//
// Layout:
//   file header:  "LDPB" magic, u16 version
//   per message:  u16 total_length (bytes after this field), then
//                 u64 timestamp_ns, u8 transport, u8 direction,
//                 u8 addr_family (4|6), src addr bytes, u16 src_port,
//                 dst addr bytes, u16 dst_port,
//                 u16 payload_len, payload bytes
#pragma once

#include <optional>

#include "trace/input_bytes.hpp"
#include "trace/record.hpp"

namespace ldp::trace {

class BinaryWriter {
 public:
  BinaryWriter();

  void add(const TraceRecord& rec);

  std::vector<uint8_t> take() &&;
  Result<void> save(const std::string& path) const;

  size_t record_count() const { return count_; }
  size_t byte_size() const { return w_.size(); }

 private:
  ByteWriter w_;
  size_t count_ = 0;
};

class BinaryReader {
 public:
  static Result<BinaryReader> from_bytes(std::vector<uint8_t> bytes);
  /// Maps the file read-only and validates the stream header.
  static Result<BinaryReader> open(const std::string& path);

  /// Next record, or nullopt at end. Malformed framing is an error (this is
  /// our own format; corruption should not be silently skipped).
  Result<std::optional<TraceRecord>> next();

  Result<std::vector<TraceRecord>> read_all();

 private:
  BinaryReader() = default;
  static Result<BinaryReader> from_input(InputBytes bytes);
  /// Decode the next record into `rec`; false at the end.
  Result<bool> next_into(TraceRecord& rec);
  /// Messages left in the stream, counted from the length prefixes alone.
  size_t messages_left() const;

  InputBytes bytes_;
  size_t pos_ = 0;
};

}  // namespace ldp::trace

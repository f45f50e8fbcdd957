#include "trace/binary.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace ldp::trace {

namespace {
constexpr char kMagic[4] = {'L', 'D', 'P', 'B'};
constexpr uint16_t kVersion = 1;

void write_addr(ByteWriter& w, const IpAddr& addr) {
  if (addr.is_v4()) {
    w.u8(4);
    w.u32(addr.v4().value());
  } else {
    w.u8(6);
    w.bytes(std::span<const uint8_t>(addr.v6().bytes()));
  }
}

Result<IpAddr> read_addr(ByteReader& rd) {
  uint8_t family = LDP_TRY(rd.u8());
  if (family == 4) return IpAddr{Ip4{LDP_TRY(rd.u32())}};
  if (family == 6) {
    auto b = LDP_TRY(rd.bytes(16));
    std::array<uint8_t, 16> arr;
    std::copy(b.begin(), b.end(), arr.begin());
    return IpAddr{Ip6{arr}};
  }
  return Err("bad address family in binary stream");
}
}  // namespace

BinaryWriter::BinaryWriter() {
  w_.bytes(std::string_view(kMagic, 4));
  w_.u16(kVersion);
}

void BinaryWriter::add(const TraceRecord& rec) {
  ByteWriter body;
  body.u64(static_cast<uint64_t>(rec.timestamp));
  body.u8(static_cast<uint8_t>(rec.transport));
  body.u8(static_cast<uint8_t>(rec.direction));
  write_addr(body, rec.src.addr);
  body.u16(rec.src.port);
  write_addr(body, rec.dst.addr);
  body.u16(rec.dst.port);
  body.u16(static_cast<uint16_t>(rec.dns_payload.size()));
  body.bytes(std::span<const uint8_t>(rec.dns_payload));

  w_.u16(static_cast<uint16_t>(body.size()));
  w_.bytes(body.data());
  ++count_;
}

std::vector<uint8_t> BinaryWriter::take() && { return std::move(w_).take(); }

Result<void> BinaryWriter::save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Err("cannot write " + path);
  auto data = w_.data();
  size_t wrote = std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (wrote != data.size()) return Err("short write on " + path);
  return Ok();
}

Result<BinaryReader> BinaryReader::from_bytes(std::vector<uint8_t> bytes) {
  return from_input(InputBytes(std::move(bytes)));
}

Result<BinaryReader> BinaryReader::open(const std::string& path) {
  return from_input(LDP_TRY(InputBytes::map_file(path)));
}

Result<BinaryReader> BinaryReader::from_input(InputBytes bytes) {
  BinaryReader rd;
  rd.bytes_ = std::move(bytes);
  auto data = rd.bytes_.span();
  if (data.size() < 6 || std::memcmp(data.data(), kMagic, 4) != 0)
    return Err("not an LDPB stream");
  uint16_t version = static_cast<uint16_t>(data[4] << 8 | data[5]);
  if (version != kVersion)
    return Err("unsupported LDPB version " + std::to_string(version));
  rd.pos_ = 6;
  return rd;
}

Result<std::optional<TraceRecord>> BinaryReader::next() {
  TraceRecord rec;
  if (!LDP_TRY(next_into(rec))) return std::optional<TraceRecord>{};
  return std::optional<TraceRecord>{std::move(rec)};
}

Result<bool> BinaryReader::next_into(TraceRecord& rec) {
  if (pos_ >= bytes_.size()) return false;
  ByteReader rd(bytes_.span().subspan(pos_));
  uint16_t total = LDP_TRY(rd.u16());
  if (rd.remaining() < total) return Err("truncated LDPB message");

  rec.timestamp = static_cast<TimeNs>(LDP_TRY(rd.u64()));
  uint8_t transport = LDP_TRY(rd.u8());
  if (transport > 2) return Err("bad transport in LDPB stream");
  rec.transport = static_cast<Transport>(transport);
  uint8_t direction = LDP_TRY(rd.u8());
  if (direction > 1) return Err("bad direction in LDPB stream");
  rec.direction = static_cast<Direction>(direction);
  rec.src.addr = LDP_TRY(read_addr(rd));
  rec.src.port = LDP_TRY(rd.u16());
  rec.dst.addr = LDP_TRY(read_addr(rd));
  rec.dst.port = LDP_TRY(rd.u16());
  uint16_t payload_len = LDP_TRY(rd.u16());
  auto payload = LDP_TRY(rd.bytes(payload_len));
  rec.dns_payload.assign(payload.begin(), payload.end());

  if (rd.pos() != static_cast<size_t>(total) + 2)
    return Err("LDPB message length mismatch");
  pos_ += rd.pos();
  return true;
}

size_t BinaryReader::messages_left() const {
  ByteReader rd(bytes_.span().subspan(pos_));
  size_t n = 0;
  while (rd.remaining() >= 2 && rd.skip(*rd.u16()).ok()) ++n;
  return n;
}

Result<std::vector<TraceRecord>> BinaryReader::read_all() {
  std::vector<TraceRecord> out;
  out.reserve(messages_left());
  while (true) {
    TraceRecord rec;
    if (!LDP_TRY(next_into(rec))) return out;
    out.push_back(std::move(rec));
  }
}

}  // namespace ldp::trace

// Tests for the trace formats: pcap round-trip (UDP/TCP, v4/v6, junk
// skipping), plain-text round-trip, binary stream round-trip, checksum
// helpers, and Table-1 statistics.
#include <gtest/gtest.h>

#include <cstdio>

#include "trace/binary.hpp"
#include "trace/pcap.hpp"
#include "trace/stats.hpp"
#include "trace/text.hpp"
#include "synth/generator.hpp"

namespace ldp::trace {
namespace {

using dns::Message;
using dns::Name;
using dns::RRType;

TraceRecord sample_record(TimeNs t = 1461234567 * kSecond + 12345000,
                          Transport transport = Transport::Udp) {
  Message q = Message::make_query(0x1234, *Name::parse("www.example.com"), RRType::A);
  dns::Edns e;
  e.udp_payload_size = 4096;
  e.dnssec_ok = true;
  q.edns = e;
  return make_query_record(t, Endpoint{IpAddr{Ip4{198, 51, 100, 7}}, 54321},
                           Endpoint{IpAddr{Ip4{192, 0, 2, 53}}, 53}, q, transport);
}

TEST(Pcap, UdpRoundTrip) {
  PcapWriter w;
  auto rec = sample_record();
  w.add(rec);
  auto reader = PcapReader::from_bytes(std::move(w).take());
  ASSERT_TRUE(reader.ok()) << reader.error().message;
  auto all = reader->read_all();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 1u);
  const auto& got = (*all)[0];
  EXPECT_EQ(got.src, rec.src);
  EXPECT_EQ(got.dst, rec.dst);
  EXPECT_EQ(got.transport, Transport::Udp);
  EXPECT_EQ(got.direction, Direction::Query);
  EXPECT_EQ(got.dns_payload, rec.dns_payload);
  // Microsecond timestamp precision.
  EXPECT_EQ(got.timestamp / 1000, rec.timestamp / 1000);
}

TEST(Pcap, TcpSingleSegmentRoundTrip) {
  PcapWriter w;
  auto rec = sample_record(42 * kSecond, Transport::Tcp);
  w.add(rec);
  auto reader = PcapReader::from_bytes(std::move(w).take());
  ASSERT_TRUE(reader.ok());
  auto all = reader->read_all();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 1u);
  EXPECT_EQ((*all)[0].transport, Transport::Tcp);
  EXPECT_EQ((*all)[0].dns_payload, rec.dns_payload);
}

TEST(Pcap, Ipv6RoundTrip) {
  Message q = Message::make_query(7, *Name::parse("v6.example.com"), RRType::AAAA);
  auto rec = make_query_record(kSecond, Endpoint{IpAddr{*Ip6::parse("2001:db8::7")}, 40000},
                               Endpoint{IpAddr{*Ip6::parse("2001:db8::53")}, 53}, q);
  PcapWriter w;
  w.add(rec);
  auto reader = PcapReader::from_bytes(std::move(w).take());
  ASSERT_TRUE(reader.ok());
  auto all = reader->read_all();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 1u);
  EXPECT_EQ((*all)[0].src, rec.src);
  EXPECT_EQ((*all)[0].dns_payload, rec.dns_payload);
}

TEST(Pcap, ResponsesClassifiedByPort) {
  Message q = Message::make_query(9, *Name::parse("x.example"), RRType::A);
  Message r = Message::make_response(q);
  auto rec = make_query_record(kSecond, Endpoint{IpAddr{Ip4{192, 0, 2, 53}}, 53},
                               Endpoint{IpAddr{Ip4{198, 51, 100, 7}}, 54321}, r);
  PcapWriter w;
  w.add(rec);
  auto reader = PcapReader::from_bytes(std::move(w).take());
  ASSERT_TRUE(reader.ok());
  auto all = reader->read_all();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 1u);
  EXPECT_EQ((*all)[0].direction, Direction::Response);
}

TEST(Pcap, RejectsGarbageFile) {
  EXPECT_FALSE(PcapReader::from_bytes({1, 2, 3, 4}).ok());
  std::vector<uint8_t> wrong_magic(24, 0);
  EXPECT_FALSE(PcapReader::from_bytes(wrong_magic).ok());
}

TEST(Pcap, SkipsNonDnsPackets) {
  // Hand-build a pcap with one non-DNS UDP packet (port 80) followed by one
  // DNS packet; the reader should return only the DNS one.
  PcapWriter w;
  auto junk = sample_record();
  junk.src.port = 8080;
  junk.dst.port = 80;
  w.add(junk);
  w.add(sample_record());
  auto reader = PcapReader::from_bytes(std::move(w).take());
  ASSERT_TRUE(reader.ok());
  auto all = reader->read_all();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 1u);
  EXPECT_EQ(reader->skipped(), 1u);
}

TEST(Pcap, FileSaveLoad) {
  PcapWriter w;
  for (int i = 0; i < 10; ++i) w.add(sample_record(i * kMilli));
  std::string path = ::testing::TempDir() + "/ldp_test.pcap";
  ASSERT_TRUE(w.save(path).ok());
  auto reader = PcapReader::open(path);
  ASSERT_TRUE(reader.ok());
  auto all = reader->read_all();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 10u);
}

// open() maps the file; its errors must stay the ones a copying load gave.
TEST(Pcap, OpenReportsMissingEmptyAndTruncatedFiles) {
  std::string dir = ::testing::TempDir();
  auto missing = PcapReader::open(dir + "/ldp_no_such_file.pcap");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error().message.find("cannot open"), std::string::npos);

  std::string empty = dir + "/ldp_empty.pcap";
  std::fclose(std::fopen(empty.c_str(), "wb"));
  EXPECT_FALSE(PcapReader::open(empty).ok());

  PcapWriter w;
  for (int i = 0; i < 3; ++i) w.add(sample_record(i * kMilli));
  auto bytes = std::move(w).take();
  bytes.resize(bytes.size() - 5);  // cut into the last packet
  std::string cut = dir + "/ldp_truncated.pcap";
  std::FILE* f = std::fopen(cut.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  auto reader = PcapReader::open(cut);
  ASSERT_TRUE(reader.ok());
  auto all = reader->read_all();
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.error().message, "truncated pcap packet");
  // The same bytes handed over in memory read the same way.
  auto in_memory = PcapReader::from_bytes(bytes);
  ASSERT_TRUE(in_memory.ok());
  auto first = in_memory->next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ(**first, sample_record(0));
  EXPECT_FALSE(in_memory->read_all().ok());
}

TEST(Checksum, KnownIpHeader) {
  // RFC 1071-style check: a header with its checksum field inserted sums to
  // zero (i.e. recomputing over the checksummed header yields 0).
  std::vector<uint8_t> hdr = {0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40,
                              0x11, 0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8,
                              0x00, 0xc7};
  uint16_t sum = inet_checksum(hdr);
  hdr[10] = static_cast<uint8_t>(sum >> 8);
  hdr[11] = static_cast<uint8_t>(sum);
  EXPECT_EQ(inet_checksum(hdr), 0);
}

TEST(Checksum, UdpPseudoHeaderVerifies) {
  ByteWriter seg;
  seg.u16(54321);
  seg.u16(53);
  seg.u16(8 + 4);
  seg.u16(0);
  seg.bytes(std::string_view("test"));
  auto bytes = std::vector<uint8_t>(seg.data().begin(), seg.data().end());
  uint16_t sum = udp4_checksum(Ip4{10, 0, 0, 1}, Ip4{10, 0, 0, 2}, bytes);
  bytes[6] = static_cast<uint8_t>(sum >> 8);
  bytes[7] = static_cast<uint8_t>(sum);
  // Recomputing over the checksummed segment gives 0 (or 0xffff ≡ 0).
  ByteWriter pseudo;
  pseudo.u32(Ip4{10, 0, 0, 1}.value());
  pseudo.u32(Ip4{10, 0, 0, 2}.value());
  pseudo.u8(0);
  pseudo.u8(17);
  pseudo.u16(static_cast<uint16_t>(bytes.size()));
  pseudo.bytes(std::span<const uint8_t>(bytes));
  uint16_t check = inet_checksum(pseudo.data());
  EXPECT_TRUE(check == 0 || check == 0xffff);
}

TEST(Text, RoundTrip) {
  auto rec = sample_record();
  auto line = record_to_text(rec);
  ASSERT_TRUE(line.ok()) << line.error().message;
  auto back = record_from_text(*line);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back->timestamp / 1000, rec.timestamp / 1000);  // µs precision
  EXPECT_EQ(back->src, rec.src);
  EXPECT_EQ(back->dst, rec.dst);
  EXPECT_EQ(back->transport, rec.transport);
  // DNS payload identical (same question, flags, EDNS).
  EXPECT_EQ(back->dns_payload, rec.dns_payload);
}

TEST(Text, FlagsAndEdnsVariants) {
  // No EDNS, no flags.
  Message plain = Message::make_query(1, *Name::parse("a.example"), RRType::A, false);
  auto rec = make_query_record(0, Endpoint{IpAddr{Ip4{1, 2, 3, 4}}, 1000},
                               Endpoint{IpAddr{Ip4{5, 6, 7, 8}}, 53}, plain);
  auto line = record_to_text(rec);
  ASSERT_TRUE(line.ok());
  EXPECT_NE(line->find(" - -"), std::string::npos);
  auto back = record_from_text(*line);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->dns_payload, rec.dns_payload);
}

TEST(Text, MalformedLinesRejected) {
  EXPECT_FALSE(record_from_text("too few columns").ok());
  EXPECT_FALSE(record_from_text(
                   "1.0 1.2.3.4 99999 5.6.7.8 53 UDP 1 a.example. IN A - -")
                   .ok());  // bad port
  EXPECT_FALSE(record_from_text(
                   "1.0 1.2.3.4 1000 5.6.7.8 53 SCTP 1 a.example. IN A - -")
                   .ok());  // bad transport
  EXPECT_FALSE(record_from_text(
                   "1.0 1.2.3.4 1000 5.6.7.8 53 UDP 1 a.example. IN A do -")
                   .ok());  // DO without EDNS
}

TEST(Text, TraceToTextSkipsResponses) {
  Message q = Message::make_query(2, *Name::parse("b.example"), RRType::A);
  Message r = Message::make_response(q);
  std::vector<TraceRecord> recs;
  recs.push_back(make_query_record(0, Endpoint{IpAddr{Ip4{1, 1, 1, 1}}, 1234},
                                   Endpoint{IpAddr{Ip4{2, 2, 2, 2}}, 53}, q));
  recs.push_back(make_query_record(1, Endpoint{IpAddr{Ip4{2, 2, 2, 2}}, 53},
                                   Endpoint{IpAddr{Ip4{1, 1, 1, 1}}, 1234}, r));
  auto text = trace_to_text(recs);
  ASSERT_TRUE(text.ok());
  auto back = trace_from_text(*text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 1u);
}

TEST(Text, CommentsAndBlanksIgnored) {
  auto rec = sample_record();
  auto line = record_to_text(rec);
  ASSERT_TRUE(line.ok());
  std::string file = "# header comment\n\n" + *line + "\n\n";
  auto back = trace_from_text(file);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 1u);
}

TEST(Binary, RoundTripPreservesEverything) {
  BinaryWriter w;
  auto rec1 = sample_record(123456789, Transport::Tls);
  auto rec2 = sample_record(987654321, Transport::Udp);
  w.add(rec1);
  w.add(rec2);
  EXPECT_EQ(w.record_count(), 2u);

  auto reader = BinaryReader::from_bytes(std::move(w).take());
  ASSERT_TRUE(reader.ok()) << reader.error().message;
  auto all = reader->read_all();
  ASSERT_TRUE(all.ok()) << all.error().message;
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0], rec1);  // exact: ns timestamps, transport, payload
  EXPECT_EQ((*all)[1], rec2);
}

TEST(Binary, V6AddressesSupported) {
  BinaryWriter w;
  Message q = Message::make_query(3, *Name::parse("c.example"), RRType::AAAA);
  auto rec = make_query_record(5, Endpoint{IpAddr{*Ip6::parse("2001:db8::1")}, 1111},
                               Endpoint{IpAddr{*Ip6::parse("2001:db8::2")}, 53}, q);
  w.add(rec);
  auto reader = BinaryReader::from_bytes(std::move(w).take());
  ASSERT_TRUE(reader.ok());
  auto all = reader->read_all();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ((*all)[0], rec);
}

TEST(Binary, CorruptionIsAnErrorNotSkip) {
  BinaryWriter w;
  w.add(sample_record());
  auto bytes = std::move(w).take();
  bytes.resize(bytes.size() - 3);  // truncate mid-message
  auto reader = BinaryReader::from_bytes(std::move(bytes));
  ASSERT_TRUE(reader.ok());
  auto rec = reader->next();
  EXPECT_FALSE(rec.ok());
}

TEST(Binary, RejectsWrongMagicOrVersion) {
  EXPECT_FALSE(BinaryReader::from_bytes({'X', 'X', 'X', 'X', 0, 1}).ok());
  EXPECT_FALSE(BinaryReader::from_bytes({'L', 'D', 'P', 'B', 0, 99}).ok());
}

TEST(Binary, FileSaveLoad) {
  BinaryWriter w;
  for (int i = 0; i < 100; ++i) w.add(sample_record(i * kMilli));
  std::string path = ::testing::TempDir() + "/ldp_test.ldpb";
  ASSERT_TRUE(w.save(path).ok());
  auto reader = BinaryReader::open(path);
  ASSERT_TRUE(reader.ok());
  auto all = reader->read_all();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 100u);
}

TEST(Binary, OpenReportsMissingAndEmptyFiles) {
  std::string dir = ::testing::TempDir();
  EXPECT_FALSE(BinaryReader::open(dir + "/ldp_no_such_file.ldpb").ok());
  std::string empty = dir + "/ldp_empty.ldpb";
  std::fclose(std::fopen(empty.c_str(), "wb"));
  EXPECT_FALSE(BinaryReader::open(empty).ok());
}

TEST(Stats, ComputesTable1Columns) {
  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 10 * kMilli;
  spec.duration_ns = 10 * kSecond;
  spec.client_count = 50;
  auto recs = synth::make_fixed_trace(spec);
  auto stats = compute_stats(recs);
  EXPECT_EQ(stats.queries, recs.size());
  EXPECT_EQ(stats.unique_clients, 50u);
  EXPECT_NEAR(stats.interarrival_mean_s, 0.010, 1e-9);
  EXPECT_NEAR(stats.interarrival_stdev_s, 0.0, 1e-7);  // float rounding only
  EXPECT_NEAR(stats.duration_s(), 10.0, 0.1);
  EXPECT_NEAR(stats.mean_rate_qps(), 100.0, 1.0);
}

TEST(Stats, PerClientLoadHeavyTail) {
  synth::RootTraceSpec spec;
  spec.mean_rate_qps = 2000;
  spec.duration_ns = 20 * kSecond;
  spec.client_count = 5000;
  auto recs = synth::make_root_trace(spec);
  auto load = per_client_load(recs);
  ASSERT_FALSE(load.empty());

  std::vector<uint64_t> counts;
  counts.reserve(load.size());
  uint64_t total = 0;
  for (auto& [addr, n] : load) {
    counts.push_back(n);
    total += n;
  }
  std::sort(counts.rbegin(), counts.rend());
  // Top 1% of clients should carry a majority of the load (paper: 75%).
  size_t top = std::max<size_t>(1, counts.size() / 100);
  uint64_t top_sum = 0;
  for (size_t i = 0; i < top; ++i) top_sum += counts[i];
  EXPECT_GT(static_cast<double>(top_sum) / static_cast<double>(total), 0.4);
}

}  // namespace
}  // namespace ldp::trace

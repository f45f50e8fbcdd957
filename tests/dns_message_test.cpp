// Tests for dns::Message: header flags, section handling, EDNS lifting,
// compression across sections, truncation, and randomized round-trips.
#include <gtest/gtest.h>

#include "dns/message.hpp"
#include "util/rng.hpp"

namespace ldp::dns {
namespace {

Name mk(std::string_view s) { return *Name::parse(s); }

ResourceRecord a_rr(std::string_view name, uint32_t ttl, Ip4 addr) {
  return ResourceRecord{mk(name), RRType::A, RRClass::IN, ttl, Rdata{AData{addr}}};
}

TEST(Message, QueryRoundTrip) {
  Message q = Message::make_query(0x1234, mk("www.example.com"), RRType::A);
  auto wire = q.to_wire();
  auto back = Message::from_wire(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, q);
  EXPECT_EQ(back->header.id, 0x1234);
  EXPECT_TRUE(back->header.rd);
  EXPECT_FALSE(back->header.qr);
  ASSERT_EQ(back->questions.size(), 1u);
  EXPECT_EQ(back->questions[0].qname, mk("www.example.com"));
}

TEST(Message, AllHeaderFlagsRoundTrip) {
  Message m;
  m.header.id = 0xffff;
  m.header.qr = true;
  m.header.opcode = Opcode::Notify;
  m.header.aa = true;
  m.header.tc = true;
  m.header.rd = true;
  m.header.ra = true;
  m.header.ad = true;
  m.header.cd = true;
  m.header.rcode = Rcode::Refused;
  auto back = Message::from_wire(m.to_wire());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, m);
}

TEST(Message, ResponseWithAllSections) {
  Message q = Message::make_query(7, mk("example.com"), RRType::A);
  Message r = Message::make_response(q);
  r.header.aa = true;
  r.answers.push_back(a_rr("example.com", 300, Ip4{192, 0, 2, 1}));
  r.answers.push_back(a_rr("example.com", 300, Ip4{192, 0, 2, 2}));
  r.authorities.push_back(ResourceRecord{mk("example.com"), RRType::NS, RRClass::IN,
                                         86400, Rdata{NameData{mk("ns1.example.com")}}});
  r.additionals.push_back(a_rr("ns1.example.com", 86400, Ip4{192, 0, 2, 53}));

  auto back = Message::from_wire(r.to_wire());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, r);
  EXPECT_EQ(back->answers.size(), 2u);
  EXPECT_EQ(back->authorities.size(), 1u);
  EXPECT_EQ(back->additionals.size(), 1u);
}

TEST(Message, EdnsLiftedOutOfAdditional) {
  Message q = Message::make_query(1, mk("example.com"), RRType::SOA);
  Edns e;
  e.udp_payload_size = 4096;
  e.dnssec_ok = true;
  q.edns = e;

  auto wire = q.to_wire();
  auto back = Message::from_wire(wire);
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(back->edns.has_value());
  EXPECT_EQ(back->edns->udp_payload_size, 4096);
  EXPECT_TRUE(back->edns->dnssec_ok);
  EXPECT_TRUE(back->additionals.empty());  // OPT is not a visible RR

  // ARCOUNT on the wire includes the OPT record.
  EXPECT_EQ(wire[11], 1);  // low byte of arcount
}

TEST(Message, DuplicateOptRejected) {
  Message q = Message::make_query(1, mk("example.com"), RRType::A);
  Edns e;
  q.edns = e;
  auto wire = q.to_wire();
  // Append the same OPT record again by raw surgery: bump arcount and
  // duplicate the trailing 11 bytes (root+OPT header, no options).
  std::vector<uint8_t> hacked(wire.begin(), wire.end());
  std::vector<uint8_t> opt(hacked.end() - 11, hacked.end());
  hacked.insert(hacked.end(), opt.begin(), opt.end());
  hacked[11] = 2;
  EXPECT_FALSE(Message::from_wire(hacked).ok());
}

TEST(Message, CompressionShrinksRepeatedNames) {
  Message r;
  r.header.qr = true;
  r.questions.push_back(Question{mk("host.example.com"), RRType::A, RRClass::IN});
  for (int i = 0; i < 10; ++i)
    r.answers.push_back(a_rr("host.example.com", 60, Ip4{10, 0, 0, static_cast<uint8_t>(i)}));

  auto wire = r.to_wire();
  // Uncompressed, each answer name costs 18 bytes; compressed it's a 2-byte
  // pointer. 10 answers: full-name cost would exceed 180; the whole message
  // should stay well under that.
  size_t uncompressed_names = 10 * mk("host.example.com").wire_length();
  EXPECT_LT(wire.size(), 12 + 22 + uncompressed_names);

  auto back = Message::from_wire(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, r);
}

TEST(Message, TruncationSetsTcAndDropsSections) {
  Message r;
  r.header.qr = true;
  r.questions.push_back(Question{mk("big.example.com"), RRType::TXT, RRClass::IN});
  for (int i = 0; i < 100; ++i) {
    TxtData txt;
    txt.strings.push_back(std::string(100, 'x'));
    r.answers.push_back(ResourceRecord{mk("big.example.com"), RRType::TXT,
                                       RRClass::IN, 60, Rdata{txt}});
  }
  auto full = r.to_wire();
  EXPECT_GT(full.size(), 512u);

  auto truncated = r.to_wire(512);
  EXPECT_LE(truncated.size(), 512u);
  auto back = Message::from_wire(truncated);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->header.tc);
  EXPECT_TRUE(back->answers.empty());
  EXPECT_EQ(back->questions.size(), 1u);
}

TEST(Message, TruncationKeepsEdns) {
  Message r;
  r.header.qr = true;
  r.questions.push_back(Question{mk("x.example"), RRType::A, RRClass::IN});
  Edns e;
  e.udp_payload_size = 512;
  r.edns = e;
  for (int i = 0; i < 200; ++i)
    r.answers.push_back(a_rr("x.example", 1, Ip4{1, 1, 1, static_cast<uint8_t>(i)}));
  auto truncated = r.to_wire(512);
  auto back = Message::from_wire(truncated);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->header.tc);
  EXPECT_TRUE(back->edns.has_value());
}

// Trace records keep their encoded payloads for a whole replay, so the
// encoder must hand back exactly the bytes it wrote, with no growth slack.
TEST(Message, ToWireIsExactSize) {
  auto query = Message::make_query(0x2a, mk("www.example.com"), RRType::A).to_wire();
  EXPECT_EQ(query.capacity(), query.size());

  Message r;
  r.header.qr = true;
  r.questions.push_back(Question{mk("x.example"), RRType::A, RRClass::IN});
  for (int i = 0; i < 200; ++i)
    r.answers.push_back(a_rr("x.example", 1, Ip4{1, 1, 1, static_cast<uint8_t>(i)}));
  auto truncated = r.to_wire(512);
  EXPECT_LT(truncated.size(), 512u);
  EXPECT_EQ(truncated.capacity(), truncated.size());
  auto back = Message::from_wire(truncated);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->header.tc);
}

TEST(Message, MakeResponseMirrorsEdnsDo) {
  Message q = Message::make_query(9, mk("example.com"), RRType::DNSKEY);
  Edns e;
  e.dnssec_ok = true;
  q.edns = e;
  Message r = Message::make_response(q);
  EXPECT_TRUE(r.header.qr);
  EXPECT_EQ(r.header.id, 9);
  ASSERT_TRUE(r.edns.has_value());
  EXPECT_TRUE(r.edns->dnssec_ok);

  Message q2 = Message::make_query(10, mk("example.com"), RRType::A);
  Message r2 = Message::make_response(q2);
  EXPECT_FALSE(r2.edns.has_value());
}

TEST(Message, GarbageRejected) {
  std::vector<uint8_t> junk = {0x00, 0x01, 0x02};
  EXPECT_FALSE(Message::from_wire(junk).ok());
  std::vector<uint8_t> claims_answers(12, 0);
  claims_answers[5] = 1;  // qdcount=1 but no question bytes
  EXPECT_FALSE(Message::from_wire(claims_answers).ok());
}

TEST(Message, EmptyMessageValid) {
  // Header-only message (e.g., FORMERR responses) round-trips.
  Message m;
  m.header.qr = true;
  m.header.rcode = Rcode::FormErr;
  auto back = Message::from_wire(m.to_wire());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, m);
}

// Randomized property test: messages with arbitrary flag/section mixes
// round-trip bit-exactly through the wire codec.
class MessageFuzzRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(MessageFuzzRoundTrip, Wire) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int iter = 0; iter < 50; ++iter) {
    Message m;
    m.header.id = static_cast<uint16_t>(rng.uniform(0, 0xffff));
    m.header.qr = rng.bernoulli(0.5);
    m.header.aa = rng.bernoulli(0.5);
    m.header.rd = rng.bernoulli(0.5);
    m.header.ra = rng.bernoulli(0.5);
    m.header.rcode = rng.bernoulli(0.2) ? Rcode::NXDomain : Rcode::NoError;

    auto rand_name = [&rng]() {
      std::string s;
      int labels = static_cast<int>(rng.uniform(1, 4));
      for (int i = 0; i < labels; ++i) {
        if (i) s += ".";
        int len = static_cast<int>(rng.uniform(1, 12));
        for (int j = 0; j < len; ++j)
          s += static_cast<char>('a' + rng.uniform(0, 25));
      }
      return *Name::parse(s);
    };

    m.questions.push_back(Question{rand_name(), RRType::A, RRClass::IN});
    int answers = static_cast<int>(rng.uniform(0, 5));
    for (int i = 0; i < answers; ++i) {
      if (rng.bernoulli(0.5)) {
        m.answers.push_back(ResourceRecord{
            rand_name(), RRType::A, RRClass::IN,
            static_cast<uint32_t>(rng.uniform(0, 86400)),
            Rdata{AData{Ip4{static_cast<uint32_t>(rng.uniform(0, 0xffffffff))}}}});
      } else {
        m.answers.push_back(ResourceRecord{rand_name(), RRType::NS, RRClass::IN, 3600,
                                           Rdata{NameData{rand_name()}}});
      }
    }
    if (rng.bernoulli(0.5)) {
      Edns e;
      e.udp_payload_size = static_cast<uint16_t>(rng.uniform(512, 4096));
      e.dnssec_ok = rng.bernoulli(0.5);
      m.edns = e;
    }

    auto back = Message::from_wire(m.to_wire());
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(*back, m);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageFuzzRoundTrip, ::testing::Range(1, 9));

}  // namespace
}  // namespace ldp::dns

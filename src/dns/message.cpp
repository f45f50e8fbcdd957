#include "dns/message.hpp"

#include "dns/wire.hpp"

namespace ldp::dns {

namespace {

Result<ResourceRecord> rr_from_wire(ByteReader& rd) {
  ResourceRecord rr;
  rr.name = LDP_TRY(Name::from_wire(rd));
  rr.type = static_cast<RRType>(LDP_TRY(rd.u16()));
  rr.rrclass = static_cast<RRClass>(LDP_TRY(rd.u16()));
  rr.ttl = LDP_TRY(rd.u32());
  uint16_t rdlength = LDP_TRY(rd.u16());
  rr.rdata = LDP_TRY(Rdata::from_wire(rr.type, rd, rdlength));
  return rr;
}

void rr_to_wire(const ResourceRecord& rr, ByteWriter& w, NameCompressor& compressor) {
  compressor.write_name(w, rr.name, true);
  w.u16(static_cast<uint16_t>(rr.type));
  w.u16(static_cast<uint16_t>(rr.rrclass));
  w.u32(rr.ttl);
  rr.rdata.to_wire(rr.type, w, &compressor);
}

// The OPT pseudo-RR (RFC 6891 §6.1.2) abuses RR fields: CLASS carries the
// UDP payload size, TTL carries extended-rcode/version/flags.
void edns_to_wire(const Edns& e, ByteWriter& w) {
  w.u8(0);  // root name
  w.u16(static_cast<uint16_t>(RRType::OPT));
  w.u16(e.udp_payload_size);
  uint32_t ttl = static_cast<uint32_t>(e.extended_rcode) << 24 |
                 static_cast<uint32_t>(e.version) << 16 |
                 (e.dnssec_ok ? 0x8000u : 0u);
  w.u32(ttl);
  w.u16(static_cast<uint16_t>(e.options.size()));
  w.bytes(std::span<const uint8_t>(e.options));
}

Edns edns_from_rr(const ResourceRecord& rr) {
  Edns e;
  e.udp_payload_size = static_cast<uint16_t>(rr.rrclass);
  e.extended_rcode = static_cast<uint8_t>(rr.ttl >> 24);
  e.version = static_cast<uint8_t>(rr.ttl >> 16);
  e.dnssec_ok = (rr.ttl & 0x8000) != 0;
  if (const auto* op = rr.rdata.get_if<OpaqueData>()) e.options = op->bytes;
  return e;
}

}  // namespace

std::string Question::to_string() const {
  return qname.to_string() + " " + rrclass_to_string(qclass) + " " +
         rrtype_to_string(qtype);
}

Result<Message> Message::from_wire(std::span<const uint8_t> data) {
  ByteReader rd(data);
  Message m;

  m.header.id = LDP_TRY(rd.u16());
  uint16_t flags = LDP_TRY(rd.u16());
  m.header.qr = (flags & 0x8000) != 0;
  m.header.opcode = static_cast<Opcode>(flags >> 11 & 0xf);
  m.header.aa = (flags & 0x0400) != 0;
  m.header.tc = (flags & 0x0200) != 0;
  m.header.rd = (flags & 0x0100) != 0;
  m.header.ra = (flags & 0x0080) != 0;
  m.header.ad = (flags & 0x0020) != 0;
  m.header.cd = (flags & 0x0010) != 0;
  m.header.rcode = static_cast<Rcode>(flags & 0xf);

  uint16_t qdcount = LDP_TRY(rd.u16());
  uint16_t ancount = LDP_TRY(rd.u16());
  uint16_t nscount = LDP_TRY(rd.u16());
  uint16_t arcount = LDP_TRY(rd.u16());

  for (uint16_t i = 0; i < qdcount; ++i) {
    Question q;
    q.qname = LDP_TRY(Name::from_wire(rd));
    q.qtype = static_cast<RRType>(LDP_TRY(rd.u16()));
    q.qclass = static_cast<RRClass>(LDP_TRY(rd.u16()));
    m.questions.push_back(std::move(q));
  }
  for (uint16_t i = 0; i < ancount; ++i) m.answers.push_back(LDP_TRY(rr_from_wire(rd)));
  for (uint16_t i = 0; i < nscount; ++i)
    m.authorities.push_back(LDP_TRY(rr_from_wire(rd)));
  for (uint16_t i = 0; i < arcount; ++i) {
    ResourceRecord rr = LDP_TRY(rr_from_wire(rd));
    if (rr.type == RRType::OPT) {
      if (m.edns.has_value()) return Err("duplicate OPT record");
      m.edns = edns_from_rr(rr);
      // Extended rcode's upper bits merge into the header rcode.
      if (m.edns->extended_rcode != 0) {
        m.header.rcode = static_cast<Rcode>(
            (m.edns->extended_rcode << 4) | static_cast<uint8_t>(m.header.rcode));
      }
    } else {
      m.additionals.push_back(std::move(rr));
    }
  }
  return m;
}

std::vector<uint8_t> Message::to_wire(size_t max_size) const {
  // Encode into a per-thread scratch writer and return an exact-size copy: a
  // trace record keeps its payload for the whole replay, so the payload must
  // not carry the writer's growth slack (a 512-byte buffer per 40-byte query).
  thread_local ByteWriter w;
  auto encode = [this](bool truncated) {
    w.clear();
    NameCompressor compressor;

    uint16_t flags = 0;
    if (header.qr) flags |= 0x8000;
    flags |= static_cast<uint16_t>(static_cast<uint8_t>(header.opcode) & 0xf) << 11;
    if (header.aa) flags |= 0x0400;
    if (header.tc || truncated) flags |= 0x0200;
    if (header.rd) flags |= 0x0100;
    if (header.ra) flags |= 0x0080;
    if (header.ad) flags |= 0x0020;
    if (header.cd) flags |= 0x0010;
    flags |= static_cast<uint8_t>(header.rcode) & 0xf;

    w.u16(header.id);
    w.u16(flags);
    w.u16(static_cast<uint16_t>(questions.size()));
    w.u16(truncated ? 0 : static_cast<uint16_t>(answers.size()));
    w.u16(truncated ? 0 : static_cast<uint16_t>(authorities.size()));
    w.u16(static_cast<uint16_t>((truncated ? 0 : additionals.size()) +
                                (edns.has_value() ? 1 : 0)));

    for (const auto& q : questions) {
      compressor.write_name(w, q.qname, true);
      w.u16(static_cast<uint16_t>(q.qtype));
      w.u16(static_cast<uint16_t>(q.qclass));
    }
    if (!truncated) {
      for (const auto& rr : answers) rr_to_wire(rr, w, compressor);
      for (const auto& rr : authorities) rr_to_wire(rr, w, compressor);
      for (const auto& rr : additionals) rr_to_wire(rr, w, compressor);
    }
    if (edns.has_value()) edns_to_wire(*edns, w);
  };

  encode(false);
  if (max_size != 0 && w.size() > max_size) encode(true);
  auto bytes = w.data();
  return {bytes.begin(), bytes.end()};
}

Message Message::make_query(uint16_t id, const Name& qname, RRType qtype,
                            bool recursion_desired) {
  Message m;
  m.header.id = id;
  m.header.rd = recursion_desired;
  m.questions.push_back(Question{qname, qtype, RRClass::IN});
  return m;
}

Message Message::make_response(const Message& query) {
  Message m;
  m.header.id = query.header.id;
  m.header.qr = true;
  m.header.opcode = query.header.opcode;
  m.header.rd = query.header.rd;
  m.questions = query.questions;
  if (query.edns.has_value()) {
    Edns e;
    e.dnssec_ok = query.edns->dnssec_ok;
    m.edns = e;
  }
  return m;
}

std::string Message::to_string() const {
  std::string out;
  out += ";; id " + std::to_string(header.id) + " " + opcode_to_string(header.opcode) +
         " " + rcode_to_string(header.rcode);
  out += header.qr ? " qr" : "";
  out += header.aa ? " aa" : "";
  out += header.tc ? " tc" : "";
  out += header.rd ? " rd" : "";
  out += header.ra ? " ra" : "";
  out += "\n";
  if (edns.has_value()) {
    out += ";; EDNS v" + std::to_string(edns->version) +
           " udp=" + std::to_string(edns->udp_payload_size) +
           (edns->dnssec_ok ? " do" : "") + "\n";
  }
  out += ";; QUESTION\n";
  for (const auto& q : questions) out += q.to_string() + "\n";
  auto dump = [&out](const char* title, const std::vector<ResourceRecord>& rrs) {
    if (rrs.empty()) return;
    out += std::string(";; ") + title + "\n";
    for (const auto& rr : rrs) out += rr.to_string() + "\n";
  };
  dump("ANSWER", answers);
  dump("AUTHORITY", authorities);
  dump("ADDITIONAL", additionals);
  return out;
}

bool Message::operator==(const Message& o) const {
  auto hdr_eq = [](const Header& a, const Header& b) {
    return a.id == b.id && a.qr == b.qr && a.opcode == b.opcode && a.aa == b.aa &&
           a.tc == b.tc && a.rd == b.rd && a.ra == b.ra && a.ad == b.ad &&
           a.cd == b.cd && a.rcode == b.rcode;
  };
  auto edns_eq = [](const std::optional<Edns>& a, const std::optional<Edns>& b) {
    if (a.has_value() != b.has_value()) return false;
    if (!a.has_value()) return true;
    return a->udp_payload_size == b->udp_payload_size &&
           a->extended_rcode == b->extended_rcode && a->version == b->version &&
           a->dnssec_ok == b->dnssec_ok && a->options == b->options;
  };
  return hdr_eq(header, o.header) && questions == o.questions && answers == o.answers &&
         authorities == o.authorities && additionals == o.additionals &&
         edns_eq(edns, o.edns);
}

}  // namespace ldp::dns

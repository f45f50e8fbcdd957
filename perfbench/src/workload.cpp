#include "workload.hpp"

#include <algorithm>
#include <cstdio>

#include "synth/generator.hpp"
#include "util/rng.hpp"

namespace ldp::perfbench {
namespace {

// The twelve TLDs the root mix queries (RootTraceSpec::tlds) plus filler
// delegations, so the root zone has the size of the real one (about 1500
// TLDs) and parsing it is real set-up work. Filler names carry digits, so
// they can never equal a junk label (letters only) from the generator.
constexpr size_t kRootTlds = 1500;
const char* const kRootLetters[] = {"a", "b", "c", "d", "e", "f", "g",
                                    "h", "i", "j", "k", "l", "m"};

std::vector<std::string> root_tlds() {
  std::vector<std::string> tlds = synth::RootTraceSpec{}.tlds;
  for (size_t i = tlds.size(); i < kRootTlds; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "x%04zu", i);
    tlds.emplace_back(buf);
  }
  return tlds;
}

std::string root_zone_text() {
  std::string z =
      "$ORIGIN .\n$TTL 86400\n"
      ". IN SOA a.root-servers.net. nstld.verisign-grs.com. 2016040600 1800 "
      "900 604800 86400\n";
  for (int i = 0; i < 13; ++i) {
    z += std::string(". IN NS ") + kRootLetters[i] + ".root-servers.net.\n";
    z += std::string(kRootLetters[i]) + ".root-servers.net. IN A 198.41.0." +
         std::to_string(4 + i) + "\n";
  }
  size_t n = 0;
  for (const auto& tld : root_tlds()) {
    for (int ns = 0; ns < 4; ++ns) {
      std::string host = std::string(kRootLetters[ns]) + ".nic." + tld + ".";
      z += tld + ". 172800 IN NS " + host + "\n";
      z += host + " 172800 IN A 100." + std::to_string(64 + n / 250 % 64) +
           "." + std::to_string(n % 250) + "." + std::to_string(1 + ns) + "\n";
    }
    ++n;
  }
  return z;
}

const char* const kExampleZone = R"($ORIGIN example.com.
$TTL 3600
@ IN SOA ns1 admin 1 7200 900 1209600 300
@ IN NS ns1
ns1 IN A 192.0.2.1
* IN A 192.0.2.80
)";

const Endpoint kServerInTrace{IpAddr{Ip4{192, 0, 2, 1}}, 53};

// udp_hot: one wildcard name from four sources at a fixed gap, so every
// query after the first is a template-cache hit.
constexpr double kHotRateQps = 20000;
constexpr size_t kHotSources = 4;

std::vector<trace::TraceRecord> hot_trace(uint64_t seed, TimeNs duration) {
  Rng rng(seed);
  auto clients = synth::make_client_pool(kHotSources, rng);
  std::vector<Endpoint> sources;
  for (const auto& c : clients)
    sources.push_back(
        Endpoint{c, static_cast<uint16_t>(rng.uniform(32768, 60999))});
  auto qname = dns::Name::parse("www.example.com");
  if (!qname.ok()) return {};
  const TimeNs gap = static_cast<TimeNs>(kSecond / kHotRateQps);
  auto id = static_cast<uint16_t>(rng.uniform(0, 0xffff));
  std::vector<trace::TraceRecord> out;
  out.reserve(static_cast<size_t>(duration / gap));
  for (TimeNs t = 0; t < duration; t += gap) {
    auto msg = dns::Message::make_query(id++, *qname, dns::RRType::A, false);
    msg.edns = dns::Edns{};
    const Endpoint& src = sources[rng.uniform(0, sources.size() - 1)];
    out.push_back(trace::make_query_record(t, src, kServerInTrace, msg));
  }
  return out;
}

std::vector<trace::TraceRecord> root_trace(uint64_t seed, TimeNs duration,
                                           double rate_qps, size_t clients) {
  synth::RootTraceSpec spec;
  spec.mean_rate_qps = rate_qps;
  spec.duration_ns = duration;
  spec.client_count = clients;
  spec.tcp_fraction = 0;  // tcp_root rewrites live, through the mutator
  spec.seed = seed;
  spec.server = kServerInTrace;
  return synth::make_root_trace(spec);
}

}  // namespace

std::optional<Workload> make_workload(const std::string& name, uint64_t seed,
                                      TimeNs duration) {
  Workload w;
  w.name = name;
  w.zone_texts = {root_zone_text(), kExampleZone};
  if (name == "udp_hot") {
    w.trace = hot_trace(seed, duration);
    w.cache_hot = true;
  } else if (name == "udp_root") {
    w.trace = root_trace(seed, duration, 3000, 2000);
  } else if (name == "tcp_root") {
    w.trace = root_trace(seed, duration, 5000, 4);
    w.all_tcp = true;
  } else {
    return std::nullopt;
  }
  return w;
}

ExpectedAnswer expected_answer(const dns::Message& query) {
  ExpectedAnswer e;
  if (query.questions.size() != 1) {
    e.rcode = dns::Rcode::FormErr;
    return e;
  }
  std::string name = query.questions[0].qname.to_string();
  if (!name.empty() && name.back() == '.') name.pop_back();
  const std::string example = "example.com";
  if (name.size() > example.size() &&
      name.compare(name.size() - example.size() - 1, std::string::npos,
                   "." + example) == 0) {
    e.answer = query.questions[0].qtype == dns::RRType::A;  // the wildcard
    return e;
  }
  std::string tld = name.substr(name.rfind('.') + 1);
  static const std::vector<std::string> tlds = root_tlds();
  if (std::find(tlds.begin(), tlds.end(), tld) != tlds.end()) {
    e.referral = true;
  } else {
    e.rcode = dns::Rcode::NXDomain;
  }
  return e;
}

}  // namespace ldp::perfbench

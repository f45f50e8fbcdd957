// Benchmark workloads: each one is a trace generated from a seed plus the
// zone text the server loads. The replay sees only the trace file written
// from the generated records; the zone text is parsed during set-up.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dns/message.hpp"
#include "trace/record.hpp"
#include "util/clock.hpp"

namespace ldp::perfbench {

struct Workload {
  std::string name;
  std::vector<trace::TraceRecord> trace;  ///< time-ordered queries
  std::vector<std::string> zone_texts;    ///< master files the server loads
  bool all_tcp = false;  ///< rewrite every query to TCP through the live mutator
  /// Every query should come back from the template cache after the first.
  bool cache_hot = false;
};

/// Generate workload `name` (udp_hot, udp_root or tcp_root) for a replay
/// of `duration` from `seed`; nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name, uint64_t seed,
                                      TimeNs duration);

/// Reference model of the benchmark zones (RFC 1034 §4.3.2 restricted to
/// what the zones hold): the RCODE a query must get and whether it must be
/// a referral (empty answer, NS authority) or carry an answer.
struct ExpectedAnswer {
  dns::Rcode rcode = dns::Rcode::NoError;
  bool referral = false;
  bool answer = false;
};
ExpectedAnswer expected_answer(const dns::Message& query);

}  // namespace ldp::perfbench

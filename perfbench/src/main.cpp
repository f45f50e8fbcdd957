// ldp-perfbench: one replay benchmark run. Generates a workload's trace
// from a seed into a pcap file, times set-up, replays the file through
// replay::QueryEngine against an in-process server::BackgroundServer on
// loopback, checks the outcome and prints the metrics. The last line of
// standard output is one JSON object; see perfbench/README.md.
//
//   ldp-perfbench --workload udp_hot --seed 1 --seconds 10 --trace 0
//                 [--work-dir DIR] [--commit ID]
//                 [--untraced-cpu-ms-per-kq X]
//
// Exit status: 0 when every check passed, 1 when a check failed (the JSON
// line then says "correct": false), 2 on bad arguments or set-up errors.
#include <sys/utsname.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "mutate/mutator.hpp"
#include "net/socket.hpp"
#include "probe.hpp"
#include "replay/engine.hpp"
#include "server/background.hpp"
#include "server/frontend.hpp"
#include "server/response_cache.hpp"
#include "trace/load.hpp"
#include "trace/pcap.hpp"
#include "util/bytes.hpp"
#include "workload.hpp"
#include "zone/parser.hpp"

namespace ldp::perfbench {
namespace {

// Set-up is repeated several times per run and its median reported: one
// pass is tens of milliseconds, too close to scheduler jitter on a shared
// host to repeat within a tenth on its own, and the host's speed shifts
// every second or two, so passes continue for at least kSetupTime. All
// passes run before the replay, one at a time: passes made after it ran
// slower, with the replayed set-up and its report still alive.
constexpr size_t kSetupPasses = 21;
constexpr TimeNs kSetupTime = 4 * kSecond;
// The server listens on this fixed port, below the kernel's ephemeral
// range, as a DNS server listens on port 53. On an ephemeral port a client
// socket of the replay could draw the server's own port (defect (a) in
// perfbench/README.md) and take its queries.
constexpr uint16_t kServerPort = 5300;
// Queries of the workload's own trace used by the sample loops and oracles.
constexpr size_t kSampleSize = 2048;
// Each sample loop repeats over the sample for at least this long.
constexpr TimeNs kSampleLoopTime = 150 * kMilli;
// A query is on time when it leaves within this of its trace offset; the
// first second of the replay (thread start, socket creation) is skipped.
constexpr TimeNs kOnTimeSlack = kMilli;
constexpr TimeNs kOnTimeSkip = kSecond;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string commit = "unknown";
  double untraced_cpu_ms_per_kq = 0;  ///< baseline for bench.trace_overhead_frac
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "ldp-perfbench: %s\n", msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) die("missing value for " + key);
    std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') die("bad --seed " + val);
    } else if (key == "--seconds") {
      a.seconds = static_cast<int>(std::strtol(val.c_str(), &end, 10));
      if (*end != '\0' || a.seconds < 2 || a.seconds > 60)
        die("--seconds must be a whole number from 2 to 60");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") die("--trace must be 0 or 1");
      a.trace = val == "1";
    } else if (key == "--work-dir") {
      a.work_dir = val;
    } else if (key == "--commit") {
      a.commit = val;
    } else if (key == "--untraced-cpu-ms-per-kq") {
      a.untraced_cpu_ms_per_kq = std::strtod(val.c_str(), &end);
      if (*end != '\0') die("bad --untraced-cpu-ms-per-kq " + val);
    } else {
      die("unknown argument " + key);
    }
  }
  if (a.workload.empty()) die("--workload is required");
  return a;
}

/// The build type this binary was compiled with, as CMake set it, plus any
/// sanitizer or missing optimisation the compiler reports.
std::string build_type() {
#ifdef LDP_BUILD_TYPE
  std::string t = LDP_BUILD_TYPE;
#else
  std::string t;
#endif
  if (t.empty()) t = "none";
#ifdef __SANITIZE_ADDRESS__
  t += "+asan";
#endif
#ifdef __SANITIZE_THREAD__
  t += "+tsan";
#endif
#ifndef __OPTIMIZE__
  t += "+unoptimized";
#endif
  return t;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of an unsorted vector (sorts it).
double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;  ///< how many measurements the value summarises
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    metrics_.push_back({name, value, unit, samples});
  }
  void check(bool ok, const std::string& what) {
    std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) correct_ = false;
  }
  bool correct() const { return correct_; }

  void print(uint64_t attempted, uint64_t failed) const {
    for (const auto& m : metrics_)
      std::printf("metric %-28s %14.6g %-6s n=%llu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof num, "%.12g", metrics_[i].value);
      json += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + num +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

// ---- set-up -------------------------------------------------------------

Result<server::AuthServer> make_auth(const Workload& w) {
  server::AuthServer auth;
  for (const auto& text : w.zone_texts) {
    auto zone = zone::parse_zone(text);
    if (!zone.ok()) return Err("zone: " + zone.error().message);
    auto added = auth.default_zones().add(std::move(*zone));
    if (!added.ok()) return Err("zone: " + added.error().message);
  }
  return auth;
}

/// Send-once replay with at most nproc threads: one distributor, one
/// querier, no supervisor (plus the server loop and the calling thread).
replay::EngineConfig engine_config(const Endpoint& server,
                                   const mutate::MutatorPipeline* mutator) {
  replay::EngineConfig cfg;
  cfg.server = server;
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.supervise = false;
  cfg.max_retries = 0;
  cfg.live_mutator = mutator;
  return cfg;
}

struct Setup {
  std::vector<trace::TraceRecord> trace;
  std::unique_ptr<server::BackgroundServer> server;
  int server_tid = -1;
  std::unique_ptr<replay::QueryEngine> engine;
  double load_s = 0, parse_s = 0, start_s = 0, total_s = 0;
};

/// One set-up pass: load the trace file, parse the zones, start the server
/// and construct the engine. Each step is timed on its own.
Result<Setup> set_up(const std::string& pcap, const Workload& w,
                     const mutate::MutatorPipeline* mutator, SpanLog& spans) {
  Setup s;
  Scope whole(spans, "setup");
  TimeNs t0 = mono_now_ns();
  {
    Scope sc(spans, "trace.load_trace_file");
    auto loaded = trace::load_trace_file(pcap);
    if (!loaded.ok()) return Err("trace: " + loaded.error().message);
    s.trace = std::move(*loaded);
  }
  TimeNs t1 = mono_now_ns();
  auto auth = [&] {
    Scope sc(spans, "zone.parse_zone");
    return make_auth(w);
  }();
  if (!auth.ok()) return Err(auth.error().message);
  TimeNs t2 = mono_now_ns();
  auto tasks_before = task_ids();
  TimeNs t3 = mono_now_ns();
  {
    Scope sc(spans, "server.BackgroundServer::start");
    server::FrontendConfig fc;
    fc.bind.port = kServerPort;
    auto bg = server::BackgroundServer::start(std::move(*auth), fc);
    if (!bg.ok()) return Err("server: " + bg.error().message);
    s.server = std::move(*bg);
  }
  TimeNs t4 = mono_now_ns();
  for (int tid : task_ids())
    if (!tasks_before.count(tid)) s.server_tid = tid;
  TimeNs t5 = mono_now_ns();
  s.engine = std::make_unique<replay::QueryEngine>(
      engine_config(s.server->endpoint(), mutator));
  TimeNs t6 = mono_now_ns();
  s.load_s = ns_to_sec(t1 - t0);
  s.parse_s = ns_to_sec(t2 - t1);
  s.start_s = ns_to_sec(t4 - t3);
  s.total_s = ns_to_sec((t2 - t0) + (t4 - t3) + (t6 - t5));
  return s;
}

// ---- replay -------------------------------------------------------------

struct ServerCounts {
  uint64_t queries = 0, responses = 0, nxdomain = 0;
};

ServerCounts server_counts(const server::BackgroundServer& bg) {
  const auto& st = bg.auth().stats();
  return {st.queries.load(), st.responses.load(), st.nxdomain.load()};
}

struct ReplayRun {
  replay::EngineReport report;
  double cpu_s = 0;         ///< whole process, client and server threads
  double server_cpu_s = 0;  ///< the server loop thread alone
  net::IoCounters io;       ///< deltas
  SnmpCounters snmp;
  ServerCounts server;
  long rss_before_kb = 0;
  long rss_peak_kb = 0;  ///< peak resident set during the replay
};

Result<ReplayRun> run_replay(Setup& s, SpanLog& spans) {
  ReplayRun r;
  auto io0 = net::io_counters();
  auto snmp0 = read_snmp();
  auto srv0 = server_counts(*s.server);
  bool hwm_reset = reset_peak_rss();
  r.rss_before_kb = status_kb("VmRSS");
  double tcpu0 = thread_cpu_s(s.server_tid);
  double cpu0 = process_cpu_s();
  {
    Scope sc(spans, "replay.QueryEngine::replay");
    auto rep = s.engine->replay(s.trace);
    if (!rep.ok()) return Err("replay: " + rep.error().message);
    r.report = std::move(*rep);
  }
  r.cpu_s = process_cpu_s() - cpu0;
  r.server_cpu_s = thread_cpu_s(s.server_tid) - tcpu0;
  r.rss_peak_kb = hwm_reset ? status_kb("VmHWM") : max_rss_kb();
  auto io1 = net::io_counters();
  auto snmp1 = read_snmp();
  auto srv1 = server_counts(*s.server);
  r.io.sendto_calls = io1.sendto_calls - io0.sendto_calls;
  r.io.recvfrom_calls = io1.recvfrom_calls - io0.recvfrom_calls;
  r.io.sendmmsg_calls = io1.sendmmsg_calls - io0.sendmmsg_calls;
  r.io.recvmmsg_calls = io1.recvmmsg_calls - io0.recvmmsg_calls;
  r.io.datagrams_sent = io1.datagrams_sent - io0.datagrams_sent;
  r.io.datagrams_received = io1.datagrams_received - io0.datagrams_received;
  r.snmp.udp_rcvbuf_errors = snmp1.udp_rcvbuf_errors - snmp0.udp_rcvbuf_errors;
  r.snmp.udp_sndbuf_errors = snmp1.udp_sndbuf_errors - snmp0.udp_sndbuf_errors;
  r.snmp.tcp_active_opens = snmp1.tcp_active_opens - snmp0.tcp_active_opens;
  r.server = {srv1.queries - srv0.queries, srv1.responses - srv0.responses,
              srv1.nxdomain - srv0.nxdomain};
  return r;
}

/// Send-time error of every sent query past the first second, ms; and how
/// many of all scheduled queries past it left within kOnTimeSlack.
struct Timing {
  std::vector<double> late_ms;
  uint64_t scheduled = 0;
  uint64_t on_time = 0;
};

Timing send_timing(const std::vector<trace::TraceRecord>& trace,
                   const replay::EngineReport& rep) {
  Timing t;
  const TimeNs origin = trace.front().timestamp;
  for (const auto& rec : trace)
    if (rec.timestamp - origin >= kOnTimeSkip) ++t.scheduled;
  for (const auto& sr : rep.sends) {
    TimeNs offset = sr.trace_time - origin;
    if (offset < kOnTimeSkip) continue;
    TimeNs late = sr.send_time - (rep.replay_start + offset);
    t.late_ms.push_back(static_cast<double>(late) / kMilli);
    if (late <= kOnTimeSlack && late >= -kOnTimeSlack) ++t.on_time;
  }
  return t;
}

// ---- sample loops and oracles ---------------------------------------------

struct Sample {
  std::vector<trace::TraceRecord> records;
  size_t udp_limit = 512;  ///< what the frontend passes to answer_wire
};

Sample take_sample(const Workload& w, const std::vector<trace::TraceRecord>& trace) {
  Sample s;
  size_t step = std::max<size_t>(1, trace.size() / kSampleSize);
  for (size_t i = 0; i < trace.size() && s.records.size() < kSampleSize; i += step)
    s.records.push_back(trace[i]);
  s.udp_limit = w.all_tcp ? 0 : 512;
  return s;
}

/// Run `fn` over every sample index, in passes, for at least
/// kSampleLoopTime; returns {ns per call, calls}.
std::pair<double, uint64_t> time_loop(SpanLog& spans, const std::string& name,
                                      size_t n, const std::function<void(size_t)>& fn) {
  Scope sc(spans, name);
  uint64_t calls = 0;
  TimeNs start = mono_now_ns(), now = start;
  do {
    for (size_t i = 0; i < n; ++i) fn(i);
    calls += n;
    now = mono_now_ns();
  } while (now - start < kSampleLoopTime);
  return {static_cast<double>(now - start) / static_cast<double>(calls), calls};
}

bool same_but_id_rd(std::span<const uint8_t> a, std::span<const uint8_t> b) {
  if (a.size() != b.size() || a.size() < 12) return false;
  for (size_t i = 2; i < a.size(); ++i) {
    uint8_t mask = i == 2 ? 0xfe : 0xff;  // RD is the low bit of byte 2
    if ((a[i] & mask) != (b[i] & mask)) return false;
  }
  return true;
}

/// Oracles on the sample, against a server built from the same zones: every
/// reply matches the reference model, and every template-cache hit equals a
/// fresh render except for ID and RD.
void check_sample(const Workload& w, const Sample& sample,
                  const server::AuthServer& auth, Report& out) {
  uint64_t model_mismatch = 0, hits = 0, cache_mismatch = 0;
  server::ResponseCache cache(1024);
  std::vector<uint8_t> reply;
  for (const auto& rec : sample.records) {
    auto fresh = auth.answer_wire(rec.dns_payload, rec.src.addr, sample.udp_limit);
    auto q = dns::Message::from_wire(rec.dns_payload);
    auto a = fresh ? dns::Message::from_wire(*fresh) : Result<dns::Message>(Err("none"));
    if (!q.ok() || !a.ok()) {
      ++model_mismatch;
      continue;
    }
    auto want = expected_answer(*q);
    bool ok = a->header.qr && a->header.id == q->header.id &&
              a->questions == q->questions && a->header.rcode == want.rcode &&
              (!want.referral || (a->answers.empty() && !a->authorities.empty())) &&
              (!want.answer || !a->answers.empty());
    if (!ok) ++model_mismatch;
    cache.sync_revision(auth.revision());
    bool nx = false;
    switch (cache.probe(rec.dns_payload, sample.udp_limit, reply, nx)) {
      case server::ResponseCache::Outcome::Hit:
        ++hits;
        if (!same_but_id_rd(reply, *fresh)) ++cache_mismatch;
        break;
      case server::ResponseCache::Outcome::Miss:
        cache.insert(*fresh);
        break;
      case server::ResponseCache::Outcome::Bypass:
        break;
    }
  }
  out.check(model_mismatch == 0,
            "sample replies match the zone model (" +
                std::to_string(sample.records.size()) + " queries)");
  out.check(cache_mismatch == 0, "template-cache hits equal a fresh render (" +
                                     std::to_string(hits) + " hits)");
  if (w.cache_hot) out.check(hits > 0, "hot workload hits the template cache");
}

}  // namespace

int run(const Args& args) {
  auto w = make_workload(args.workload, args.seed,
                         static_cast<TimeNs>(args.seconds) * kSecond);
  if (!w) die("unknown workload " + args.workload);
  if (w->trace.empty()) die("workload " + args.workload + " generated no queries");

  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  std::string stem = args.work_dir + "/" + w->name + "-" + std::to_string(args.seed);
  std::string pcap = stem + ".pcap";
  {
    trace::PcapWriter writer;
    for (const auto& rec : w->trace) writer.add(rec);
    auto saved = writer.save(pcap);
    if (!saved.ok()) die("cannot write " + pcap + ": " + saved.error().message);
  }
  const uint64_t scheduled = w->trace.size();
  // From here on the program sees only the file; drop the generated copy so
  // it does not count in the peak resident set.
  std::vector<trace::TraceRecord>().swap(w->trace);
  utsname un{};
  uname(&un);
  std::printf(
      "provenance {\"commit\": \"%s\", \"build_type\": \"%s\", \"host_cores\": %u, "
      "\"kernel\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"input\": \"%s\", \"input_fnv1a64\": \"%s\", "
      "\"scheduled\": %llu}\n",
      args.commit.c_str(), build_type().c_str(), std::thread::hardware_concurrency(),
      un.release, w->name.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, pcap.c_str(), file_fnv1a64(pcap).c_str(),
      static_cast<unsigned long long>(scheduled));

  mutate::MutatorPipeline to_tcp;
  to_tcp.force_transport(Transport::Tcp);
  const mutate::MutatorPipeline* mutator = w->all_tcp ? &to_tcp : nullptr;

  const int ephemeral_low = ephemeral_port_low();
  if (ephemeral_low <= kServerPort)
    die("server port " + std::to_string(kServerPort) +
        " is not below the ephemeral port range (starts at " +
        std::to_string(ephemeral_low) + ")");

  // Set-up, several times; the last pass is kept for the replay.
  SpanLog spans(args.trace);
  std::vector<double> total_s, load_s, parse_s, start_s;
  auto timed_setup = [&] {
    auto s = set_up(pcap, *w, mutator, spans);
    if (!s.ok()) die(s.error().message);
    total_s.push_back(s->total_s);
    load_s.push_back(s->load_s);
    parse_s.push_back(s->parse_s);
    start_s.push_back(s->start_s);
    return std::move(*s);
  };
  const TimeNs setup_begin = mono_now_ns();
  Setup setup = timed_setup();
  while (total_s.size() < kSetupPasses || mono_now_ns() - setup_begin < kSetupTime) {
    setup = Setup{};  // one pass's data in memory at a time
    setup = timed_setup();
  }
  if (setup.trace.size() != scheduled)
    die("loaded " + std::to_string(setup.trace.size()) + " records, generated " +
        std::to_string(scheduled));
  if (setup.server_tid < 0) die("cannot find the server loop thread");

  auto run_or = run_replay(setup, spans);
  if (!run_or.ok()) die(run_or.error().message);
  ReplayRun& r = *run_or;
  {
    Scope sc(spans, "server.BackgroundServer::stop");
    setup.server->stop();
  }
  std::printf("setup passes (s):");
  for (size_t i = 0; i < total_s.size(); ++i)
    std::printf(" %.4f [load %.4f parse %.4f start %.5f]", total_s[i], load_s[i],
                parse_s[i], start_s[i]);
  std::printf("\n");
  const auto& rep = r.report;
  const auto& lc = rep.lifecycle;
  const double kq = static_cast<double>(scheduled) / 1e3;
  const double window_s = rep.duration_s();
  Timing timing = send_timing(setup.trace, rep);

  Report out;
  // Loss attribution: every scheduled query without an answer was either
  // never sent, dropped on the way to the server, dropped on the way back,
  // or answered into a socket that no longer (or never) held it.
  const auto& conns = setup.server->connections();
  auto sub = [](uint64_t a, uint64_t b) {
    return static_cast<unsigned long long>(a > b ? a - b : 0);
  };
  const uint64_t answered = rep.responses_received;
  std::printf(
      "loss scheduled %llu answered %llu: unsent %llu, dropped before server %llu, "
      "dropped on return %llu, unmatched replies %llu; expired %llu, send errors "
      "%llu; kernel udp RcvbufErrors +%llu SndbufErrors +%llu\n",
      static_cast<unsigned long long>(scheduled),
      static_cast<unsigned long long>(answered), sub(scheduled, rep.queries_sent),
      sub(rep.queries_sent, r.server.queries),
      sub(r.server.responses, answered + lc.unmatched_responses),
      static_cast<unsigned long long>(lc.unmatched_responses),
      static_cast<unsigned long long>(lc.expired),
      static_cast<unsigned long long>(rep.send_errors),
      static_cast<unsigned long long>(r.snmp.udp_rcvbuf_errors),
      static_cast<unsigned long long>(r.snmp.udp_sndbuf_errors));
  std::printf("server connections %s\n", conns.summary().c_str());

  out.check(rep.queries_sent + rep.mutator_dropped + rep.shed_queries == scheduled,
            "every scheduled query was dispatched");
  out.check(rep.responses_received + lc.expired == rep.queries_sent,
            "after drain, answered + expired == sent");
  out.check(r.server.queries == r.server.responses, "server queries == responses");
  out.check(conns.consistent(), "server connection book is consistent");
  out.check(r.server.nxdomain <= r.server.queries, "server NXDOMAIN within queries");

  Sample sample = take_sample(*w, setup.trace);
  auto sample_auth = make_auth(*w);
  if (!sample_auth.ok()) die(sample_auth.error().message);
  {
    Scope sc(spans, "sample.oracles");
    check_sample(*w, sample, *sample_auth, out);
  }

  if (!args.trace) {
    out.add("setup_s", median(total_s), "s", total_s.size());
    out.add("answered_frac", ratio(rep.responses_received, scheduled), "ratio", scheduled);
    out.add("goodput_qps", ratio(rep.responses_received, window_s), "q/s",
            rep.responses_received);
    out.add("ontime_frac", ratio(timing.on_time, timing.scheduled), "ratio",
            timing.scheduled);
    out.add("cpu_ms_per_kq", r.cpu_s * 1e3 / kq, "ms", scheduled);
    out.add("peak_rss_mb", static_cast<double>(max_rss_kb()) / 1024, "MiB", 1);
  } else {
    const size_t n = sample.records.size();
    const double load = median(load_s);
    std::unordered_set<IpAddr, IpAddrHash> sources;
    for (const auto& rec : setup.trace) sources.insert(rec.src.addr);

    out.add("trace.load_s", load, "s", load_s.size());
    out.add("trace.load_ns_per_rec", load * 1e9 / static_cast<double>(scheduled), "ns",
            load_s.size());
    out.add("zone.parse_s", median(parse_s), "s", parse_s.size());

    auto decode = time_loop(spans, "sample.dns.Message::from_wire", n, [&](size_t i) {
      auto m = dns::Message::from_wire(sample.records[i].dns_payload);
      if (!m.ok()) std::abort();
    });
    out.add("dns.query_decode_ns", decode.first, "ns", decode.second);
    std::string name_buf;
    auto qname = time_loop(spans, "sample.dns.decode_name_wire", n, [&](size_t i) {
      ByteReader rd(sample.records[i].dns_payload);
      name_buf.clear();
      if (!rd.skip(12).ok() || !dns::decode_name_wire(rd, name_buf).ok()) std::abort();
    });
    out.add("dns.qname_decode_ns", qname.first, "ns", qname.second);

    out.add("server.start_s", median(start_s), "s", start_s.size());
    out.add("server.cpu_ms_per_kq", r.server_cpu_s * 1e3 / kq, "ms", scheduled);
    auto answer = time_loop(spans, "sample.server.answer_wire", n, [&](size_t i) {
      const auto& rec = sample.records[i];
      if (!sample_auth->answer_wire(rec.dns_payload, rec.src.addr, sample.udp_limit))
        std::abort();
    });
    out.add("server.answer_ns", answer.first, "ns", answer.second);
    server::ResponseCache cache(1024);
    std::vector<uint8_t> reply;
    bool nx = false;
    cache.sync_revision(sample_auth->revision());
    for (const auto& rec : sample.records) {  // warm: insert every miss
      if (cache.probe(rec.dns_payload, sample.udp_limit, reply, nx) ==
          server::ResponseCache::Outcome::Miss)
        cache.insert(*sample_auth->answer_wire(rec.dns_payload, rec.src.addr,
                                               sample.udp_limit));
    }
    auto probe = time_loop(spans, "sample.server.ResponseCache::probe", n, [&](size_t i) {
      (void)cache.probe(sample.records[i].dns_payload, sample.udp_limit, reply, nx);
    });
    out.add("server.cache_probe_ns", probe.first, "ns", probe.second);
    const auto* live_cache = setup.server->frontend().response_cache();
    server::ResponseCache::Stats cs = live_cache ? live_cache->stats()
                                                 : server::ResponseCache::Stats{};
    const uint64_t probes = cs.hits + cs.misses + cs.bypasses;
    out.add("server.cache_hit_frac", ratio(cs.hits, probes), "ratio", probes);
    out.add("server.received_frac", ratio(r.server.queries, rep.queries_sent), "ratio",
            rep.queries_sent);
    out.add("server.peak_established", static_cast<double>(conns.peak_established),
            "count", 1);

    const uint64_t syscalls = r.io.syscalls();
    out.add("net.syscalls_per_q", ratio(syscalls, rep.queries_sent), "ratio",
            rep.queries_sent);
    out.add("net.datagrams_per_syscall", ratio(r.io.datagrams(), syscalls), "ratio",
            syscalls);
    out.add("net.udp_rcvbuf_errors_per_kq", r.snmp.udp_rcvbuf_errors / kq, "count",
            scheduled);
    out.add("net.udp_sndbuf_errors_per_kq", r.snmp.udp_sndbuf_errors / kq, "count",
            scheduled);
    out.add("net.tcp_active_opens", static_cast<double>(r.snmp.tcp_active_opens),
            "count", 1);

    std::vector<trace::TraceRecord> muts = sample.records;
    auto mut = time_loop(spans, "sample.mutate.MutatorPipeline::apply", n, [&](size_t i) {
      if (!to_tcp.apply(muts[i]).ok()) std::abort();
    });
    out.add("mutate.ns_per_rec", mut.first, "ns", mut.second);

    out.add("replay.cpu_ms_per_kq", (r.cpu_s - r.server_cpu_s) * 1e3 / kq, "ms",
            scheduled);
    out.add("replay.sent_frac", ratio(rep.queries_sent, scheduled), "ratio", scheduled);
    out.add("replay.expired_frac", ratio(lc.expired, scheduled), "ratio", scheduled);
    out.add("replay.unmatched_per_kq", lc.unmatched_responses / kq, "count", scheduled);
    out.add("replay.sources", static_cast<double>(sources.size()), "count", 1);
    out.add("replay.rss_kb_per_source",
            ratio(static_cast<double>(r.rss_peak_kb - r.rss_before_kb), sources.size()),
            "KiB", sources.size());
    const uint64_t late_n = timing.late_ms.size();
    out.add("replay.late_p50_ms", percentile(timing.late_ms, 0.50), "ms", late_n);
    out.add("replay.late_p99_ms", percentile(timing.late_ms, 0.99), "ms", late_n);
    out.add("replay.queue_hwm", static_cast<double>(rep.queue_hwm), "count", 1);
    out.add("replay.deferred_sends_per_kq", lc.deferred_sends / kq, "count", scheduled);
    out.add("replay.max_in_flight", static_cast<double>(rep.max_in_flight), "count", 1);
    std::vector<double> resp_ms;
    for (const auto& sr : rep.sends)
      if (sr.latency >= 0) resp_ms.push_back(static_cast<double>(sr.latency) / kMilli);
    const uint64_t resp_n = resp_ms.size();
    out.add("replay.resp_p50_ms", percentile(resp_ms, 0.50), "ms", resp_n);
    out.add("replay.resp_p99_ms", percentile(resp_ms, 0.99), "ms", resp_n);
    out.add("replay.resp_samples", static_cast<double>(resp_n), "count", resp_n);
    // Against the untraced run of the same workload and seed, made by the
    // caller in its own process (so both replays are a process's first).
    const double base = args.untraced_cpu_ms_per_kq;
    out.add("bench.trace_overhead_frac", ratio(r.cpu_s * 1e3 / kq - base, base),
            "ratio", base > 0 ? 2 : 0);
    std::string span_path = stem + ".spans.jsonl";
    if (!spans.write(span_path)) die("cannot write " + span_path);
    std::printf("spans %s\n", span_path.c_str());
  }

  // Queries that never got on the wire or ended in an error; sent queries
  // that got no answer are loss, measured by answered_frac.
  uint64_t failed = scheduled - std::min<uint64_t>(scheduled, rep.queries_sent);
  for (const auto& sr : rep.sends)
    if (sr.outcome == replay::QueryOutcome::Errored) ++failed;
  out.print(scheduled, failed);
  return out.correct() ? 0 : 1;
}

}  // namespace ldp::perfbench

int main(int argc, char** argv) {
  return ldp::perfbench::run(ldp::perfbench::parse_args(argc, argv));
}

// Measurement from outside the program: rusage, /proc counters and an
// in-memory span log. Nothing here calls into the code under test.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "util/clock.hpp"

namespace ldp::perfbench {

/// User + system CPU of the whole process, seconds.
double process_cpu_s();
/// Peak resident set of the process (ru_maxrss), KiB.
long max_rss_kb();
/// A field of /proc/self/status in KiB ("VmRSS", "VmHWM"), or -1.
long status_kb(const char* key);
/// Reset VmHWM to the current RSS (clear_refs 5); false if unsupported.
bool reset_peak_rss();

/// Thread ids of this process (/proc/self/task).
std::set<int> task_ids();
/// utime + stime of one thread of this process, seconds (clock-tick
/// resolution); negative when the thread is gone.
double thread_cpu_s(int tid);

/// Kernel-wide counters from /proc/net/snmp.
struct SnmpCounters {
  uint64_t udp_rcvbuf_errors = 0;
  uint64_t udp_sndbuf_errors = 0;
  uint64_t tcp_active_opens = 0;
};
SnmpCounters read_snmp();

/// Lowest port of the kernel's ephemeral range
/// (/proc/sys/net/ipv4/ip_local_port_range), or -1.
int ephemeral_port_low();

/// 64-bit FNV-1a of a file's bytes, as 16 hex digits ("" if unreadable).
std::string file_fnv1a64(const std::string& path);

/// Spans around the benchmark's calls into each layer, kept in memory and
/// written as JSON lines at exit. Disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Open a span under the innermost open one; returns its id (0 when off).
  uint32_t begin(const std::string& name);
  void end(uint32_t id);
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    uint32_t id = 0;
    uint32_t parent = 0;
    TimeNs start = 0;
    TimeNs end = 0;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(SpanLog& log, const std::string& name) : log_(log), id_(log.begin(name)) {}
  ~Scope() { log_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  uint32_t id_;
};

}  // namespace ldp::perfbench

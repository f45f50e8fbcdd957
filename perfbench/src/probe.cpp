#include "probe.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace ldp::perfbench {

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

long max_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

long status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':')
      return std::strtol(line.c_str() + n + 1, nullptr, 10);
  }
  return -1;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

int ephemeral_port_low() {
  std::ifstream in("/proc/sys/net/ipv4/ip_local_port_range");
  int low = -1;
  if (!(in >> low)) return -1;
  return low;
}

std::set<int> task_ids() {
  std::set<int> out;
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return out;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] >= '0' && e->d_name[0] <= '9') out.insert(std::atoi(e->d_name));
  }
  closedir(d);
  return out;
}

double thread_cpu_s(int tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string stat;
  if (!std::getline(in, stat)) return -1;
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

SnmpCounters read_snmp() {
  // Each protocol has a header line of names followed by a line of values.
  SnmpCounters c;
  std::ifstream in("/proc/net/snmp");
  std::string names, values;
  while (std::getline(in, names) && std::getline(in, values)) {
    std::istringstream n(names), v(values);
    std::string proto, vproto, key;
    n >> proto;
    v >> vproto;
    unsigned long long value = 0;
    while (n >> key && v >> value) {
      if (proto == "Udp:" && key == "RcvbufErrors") c.udp_rcvbuf_errors = value;
      if (proto == "Udp:" && key == "SndbufErrors") c.udp_sndbuf_errors = value;
      if (proto == "Tcp:" && key == "ActiveOpens") c.tcp_active_opens = value;
    }
  }
  return c;
}

std::string file_fnv1a64(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  uint64_t h = 1469598103934665603ULL;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h ^= static_cast<uint8_t>(buf[i]);
      h *= 1099511628211ULL;
    }
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

uint32_t SpanLog::begin(const std::string& name) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.start = mono_now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanLog::end(uint32_t id) {
  if (!enabled_ || id == 0) return;
  spans_[id - 1].end = mono_now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start
        << ",\"end_ns\":" << s.end << ",\"dur_ns\":" << (s.end - s.start)
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace ldp::perfbench

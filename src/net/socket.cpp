#include "net/socket.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>

namespace ldp::net {

namespace {

// Surface the failing syscall with its errno preserved in Error::sys_errno,
// so upper layers (the replay engine's connection-loss handling) can react
// to the condition rather than the message text.
Error sys_error(const char* op) {
  int err = errno;
  return Error{std::string(op) + ": " + std::strerror(err), err};
}

Result<Fd> make_socket(int type) {
  int fd = ::socket(AF_INET, type | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return sys_error("socket");
  return Fd(fd);
}

// Shared address-reuse setup for both bind paths (UDP sockets and TCP
// listeners), so the two cannot drift: SO_REUSEADDR on a fixed port (fast
// rebinds after a restart), SO_REUSEPORT on request (N sockets sharing one
// port, kernel-load-balanced — the shard fan-out). An ephemeral (port 0)
// bind never sets SO_REUSEADDR: Linux may hand two UDP sockets that both
// set it the same ephemeral port, and the later one then receives the
// other's replies — a replay source silently lost every answer that way.
Result<void> set_reuse(int fd, uint16_t port, bool reuse_port) {
  int one = 1;
  if (port != 0 &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0)
    return sys_error("setsockopt(SO_REUSEADDR)");
  if (reuse_port &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0)
    return sys_error("setsockopt(SO_REUSEPORT)");
  return Ok();
}

// Process-wide syscall/datagram tallies behind io_counters(). Relaxed:
// these are statistics, not synchronization.
struct AtomicIoCounters {
  std::atomic<uint64_t> sendto_calls{0};
  std::atomic<uint64_t> recvfrom_calls{0};
  std::atomic<uint64_t> sendmmsg_calls{0};
  std::atomic<uint64_t> recvmmsg_calls{0};
  std::atomic<uint64_t> datagrams_sent{0};
  std::atomic<uint64_t> datagrams_received{0};
};
AtomicIoCounters g_io;

// Per-thread tallies behind thread_io_counters(): plain increments next to
// every g_io bump. A shard thread's snapshot is exact because all I/O for
// its sockets happens on its event-loop thread.
thread_local IoCounters t_io;

Result<sockaddr_in> to_sockaddr(const Endpoint& ep) {
  if (!ep.addr.is_v4())
    return Err("non-IPv4 endpoint on an IPv4-only socket path");
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(ep.port);
  sa.sin_addr.s_addr = htonl(ep.addr.v4().value());
  return sa;
}

Endpoint from_sockaddr(const sockaddr_in& sa) {
  return Endpoint{IpAddr{Ip4{ntohl(sa.sin_addr.s_addr)}}, ntohs(sa.sin_port)};
}

Result<Endpoint> local_of(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0)
    return sys_error("getsockname");
  return from_sockaddr(sa);
}

}  // namespace

IoCounters io_counters() {
  IoCounters out;
  out.sendto_calls = g_io.sendto_calls.load(std::memory_order_relaxed);
  out.recvfrom_calls = g_io.recvfrom_calls.load(std::memory_order_relaxed);
  out.sendmmsg_calls = g_io.sendmmsg_calls.load(std::memory_order_relaxed);
  out.recvmmsg_calls = g_io.recvmmsg_calls.load(std::memory_order_relaxed);
  out.datagrams_sent = g_io.datagrams_sent.load(std::memory_order_relaxed);
  out.datagrams_received = g_io.datagrams_received.load(std::memory_order_relaxed);
  return out;
}

IoCounters thread_io_counters() { return t_io; }

Result<SockAddr> SockAddr::from_endpoint(const Endpoint& ep) {
  if (!ep.addr.is_v4())
    return Err("non-IPv4 endpoint on an IPv4-only socket path");
  return SockAddr{ep.addr.v4().value(), ep.port};
}

Endpoint SockAddr::to_endpoint() const {
  return Endpoint{IpAddr{Ip4{addr_host_order}}, port};
}

Result<UdpSocket> UdpSocket::bind(const Endpoint& local, bool reuse_port) {
  Fd fd = LDP_TRY(make_socket(SOCK_DGRAM));
  LDP_TRY_VOID(set_reuse(fd.get(), local.port, reuse_port));
  sockaddr_in sa = LDP_TRY(to_sockaddr(local));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0)
    return sys_error("bind");
  return UdpSocket(std::move(fd));
}

Result<UdpSocket> UdpSocket::create() {
  Fd fd = LDP_TRY(make_socket(SOCK_DGRAM));
  return UdpSocket(std::move(fd));
}

Result<Endpoint> UdpSocket::local_endpoint() const { return local_of(fd_.get()); }

Result<bool> UdpSocket::send_to(const Endpoint& dst, std::span<const uint8_t> payload) {
  sockaddr_in sa = LDP_TRY(to_sockaddr(dst));
  ssize_t n;
  do {
    n = ::sendto(fd_.get(), payload.data(), payload.size(), 0,
                 reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  } while (n < 0 && errno == EINTR);
  g_io.sendto_calls.fetch_add(1, std::memory_order_relaxed);
  ++t_io.sendto_calls;
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) return false;
    return sys_error("sendto");
  }
  g_io.datagrams_sent.fetch_add(1, std::memory_order_relaxed);
  ++t_io.datagrams_sent;
  return true;
}

Result<std::optional<UdpSocket::Datagram>> UdpSocket::recv() {
  uint8_t buf[65536];
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  ssize_t n;
  do {
    len = sizeof(sa);
    n = ::recvfrom(fd_.get(), buf, sizeof(buf), 0,
                   reinterpret_cast<sockaddr*>(&sa), &len);
  } while (n < 0 && errno == EINTR);
  g_io.recvfrom_calls.fetch_add(1, std::memory_order_relaxed);
  ++t_io.recvfrom_calls;
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::optional<Datagram>{};
    return sys_error("recvfrom");
  }
  g_io.datagrams_received.fetch_add(1, std::memory_order_relaxed);
  ++t_io.datagrams_received;
  Datagram dg;
  dg.from = from_sockaddr(sa);
  dg.payload.assign(buf, buf + n);
  return std::optional<Datagram>{std::move(dg)};
}

Result<size_t> UdpSocket::send_batch(std::span<const OutDatagram> dgs) {
  size_t accepted = 0;
  while (accepted < dgs.size()) {
    size_t n = std::min(kBatchSize, dgs.size() - accepted);
    mmsghdr msgs[kBatchSize];
    iovec iovs[kBatchSize];
    sockaddr_in addrs[kBatchSize];
    std::memset(msgs, 0, n * sizeof(mmsghdr));
    for (size_t i = 0; i < n; ++i) {
      const OutDatagram& dg = dgs[accepted + i];
      auto sa = to_sockaddr(dg.dst);
      if (!sa.ok()) {
        // Addressing error mid-batch: report the clean prefix if there is
        // one (the retried tail then surfaces the error with no progress).
        if (accepted > 0 || i > 0) {
          // Send the valid entries staged so far in this chunk first.
          n = i;
          break;
        }
        return sa.error();
      }
      addrs[i] = *sa;
      iovs[i].iov_base = const_cast<uint8_t*>(dg.payload.data());
      iovs[i].iov_len = dg.payload.size();
      msgs[i].msg_hdr.msg_name = &addrs[i];
      msgs[i].msg_hdr.msg_namelen = sizeof(addrs[i]);
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    if (n == 0) return accepted;
    int r;
    do {
      r = ::sendmmsg(fd_.get(), msgs, static_cast<unsigned>(n), 0);
    } while (r < 0 && errno == EINTR);
    g_io.sendmmsg_calls.fetch_add(1, std::memory_order_relaxed);
    ++t_io.sendmmsg_calls;
    if (r < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS)
        return accepted;
      if (accepted > 0) return accepted;
      return sys_error("sendmmsg");
    }
    g_io.datagrams_sent.fetch_add(static_cast<uint64_t>(r), std::memory_order_relaxed);
    t_io.datagrams_sent += static_cast<uint64_t>(r);
    accepted += static_cast<size_t>(r);
    // The kernel stopping short of the chunk means the next datagram hit a
    // transient or hard condition; either way the caller owns the tail.
    if (static_cast<size_t>(r) < n) return accepted;
  }
  return accepted;
}

Result<std::span<const UdpSocket::RecvView>> UdpSocket::recv_batch() {
  // One arena per thread, not per socket: a replay binds a socket per trace
  // source, so per-socket memory would grow with the source count. Allocated
  // without zero-filling, so only pages that datagrams land in are touched.
  thread_local std::unique_ptr<uint8_t[]> arena(new uint8_t[kBatchSize * kRecvSlotBytes]);
  thread_local RecvView views[kBatchSize];
  mmsghdr msgs[kBatchSize];
  iovec iovs[kBatchSize];
  sockaddr_in addrs[kBatchSize];
  std::memset(msgs, 0, sizeof(msgs));
  std::memset(addrs, 0, sizeof(addrs));
  for (size_t i = 0; i < kBatchSize; ++i) {
    iovs[i].iov_base = arena.get() + i * kRecvSlotBytes;
    iovs[i].iov_len = kRecvSlotBytes;
    msgs[i].msg_hdr.msg_name = &addrs[i];
    msgs[i].msg_hdr.msg_namelen = sizeof(addrs[i]);
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
  }
  int n;
  do {
    n = ::recvmmsg(fd_.get(), msgs, kBatchSize, 0, nullptr);
  } while (n < 0 && errno == EINTR);
  g_io.recvmmsg_calls.fetch_add(1, std::memory_order_relaxed);
  ++t_io.recvmmsg_calls;
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return std::span<const RecvView>{};
    return sys_error("recvmmsg");
  }
  g_io.datagrams_received.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
  t_io.datagrams_received += static_cast<uint64_t>(n);
  for (int i = 0; i < n; ++i) {
    views[i] = RecvView{
        from_sockaddr(addrs[i]),
        std::span<const uint8_t>(arena.get() + static_cast<size_t>(i) * kRecvSlotBytes,
                                 msgs[i].msg_len)};
  }
  return std::span<const RecvView>(views, static_cast<size_t>(n));
}

Result<TcpStream> TcpStream::connect(const Endpoint& remote) {
  Fd fd = LDP_TRY(make_socket(SOCK_STREAM));
  sockaddr_in sa = LDP_TRY(to_sockaddr(remote));
  int r;
  do {
    r = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  } while (r != 0 && errno == EINTR);
  if (r != 0 && errno != EINPROGRESS) return sys_error("connect");
  return TcpStream(std::move(fd), remote);
}

TcpStream TcpStream::from_accepted(Fd fd, Endpoint peer) {
  return TcpStream(std::move(fd), peer);
}

Result<size_t> TcpStream::send_message(std::span<const uint8_t> dns_payload) {
  // The 2-byte length prefix caps a framed DNS message at 65535 octets;
  // anything larger would silently truncate the prefix and desynchronize
  // the stream for the peer.
  if (dns_payload.size() > 0xffff)
    return Err("DNS message exceeds the 65535-octet TCP frame limit");
  out_.push_back(static_cast<uint8_t>(dns_payload.size() >> 8));
  out_.push_back(static_cast<uint8_t>(dns_payload.size()));
  out_.insert(out_.end(), dns_payload.begin(), dns_payload.end());
  return flush();
}

Result<size_t> TcpStream::flush() {
  while (!out_.empty()) {
    ssize_t n = ::send(fd_.get(), out_.data(), out_.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return out_.size();
      return sys_error("send");
    }
    out_.erase(out_.begin(), out_.begin() + n);
  }
  return size_t{0};
}

Result<std::vector<std::vector<uint8_t>>> TcpStream::read_messages(bool& closed) {
  closed = false;
  std::vector<std::vector<uint8_t>> messages;
  uint8_t buf[65536];
  while (true) {
    ssize_t n = ::recv(fd_.get(), buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return sys_error("recv");
    }
    if (n == 0) {
      closed = true;
      break;
    }
    in_.insert(in_.end(), buf, buf + n);
  }
  // Extract complete frames.
  size_t pos = 0;
  while (in_.size() - pos >= 2) {
    size_t frame = static_cast<size_t>(in_[pos]) << 8 | in_[pos + 1];
    if (in_.size() - pos - 2 < frame) break;
    messages.emplace_back(in_.begin() + static_cast<long>(pos + 2),
                          in_.begin() + static_cast<long>(pos + 2 + frame));
    pos += 2 + frame;
  }
  in_.erase(in_.begin(), in_.begin() + static_cast<long>(pos));
  return messages;
}

Result<void> TcpStream::set_nodelay(bool on) {
  int v = on ? 1 : 0;
  if (::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &v, sizeof(v)) != 0)
    return sys_error("TCP_NODELAY");
  return Ok();
}

Result<void> write_full(int fd, std::span<const uint8_t> buf) {
  size_t off = 0;
  while (off < buf.size()) {
    ssize_t n = ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd p{fd, POLLOUT, 0};
        if (::poll(&p, 1, -1) < 0 && errno != EINTR) return sys_error("poll");
        continue;
      }
      return sys_error("send");
    }
    off += static_cast<size_t>(n);
  }
  return Ok();
}

Result<bool> read_full(int fd, std::span<uint8_t> buf) {
  size_t off = 0;
  while (off < buf.size()) {
    ssize_t n = ::recv(fd, buf.data() + off, buf.size() - off, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd p{fd, POLLIN, 0};
        if (::poll(&p, 1, -1) < 0 && errno != EINTR) return sys_error("poll");
        continue;
      }
      return sys_error("recv");
    }
    if (n == 0) {
      if (off == 0) return false;  // clean EOF at a frame boundary
      return Err("peer closed mid-frame (truncated control frame)");
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

Result<Fd> tcp_connect_blocking(const Endpoint& remote, TimeNs timeout) {
  sockaddr_in sa = LDP_TRY(to_sockaddr(remote));
  const TimeNs deadline = mono_now_ns() + timeout;
  while (true) {
    int raw = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (raw < 0) return sys_error("socket");
    Fd fd(raw);
    int r;
    do {
      r = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    } while (r != 0 && errno == EINTR);
    if (r == 0) return fd;
    // The peer may not be listening yet (worker racing the controller's
    // listen, or a respawned worker racing a half-torn-down one); back off
    // briefly and retry with a fresh socket — a failed connect() leaves the
    // old one unusable.
    if ((errno == ECONNREFUSED || errno == ETIMEDOUT) &&
        mono_now_ns() < deadline) {
      timespec ts{0, 50 * 1000 * 1000};
      ::nanosleep(&ts, nullptr);
      continue;
    }
    return sys_error("connect");
  }
}

Result<TcpListener> TcpListener::listen(const Endpoint& local, int backlog,
                                        bool reuse_port) {
  Fd fd = LDP_TRY(make_socket(SOCK_STREAM));
  LDP_TRY_VOID(set_reuse(fd.get(), local.port, reuse_port));
  sockaddr_in sa = LDP_TRY(to_sockaddr(local));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0)
    return sys_error("bind");
  if (::listen(fd.get(), backlog) != 0)
    return sys_error("listen");
  return TcpListener(std::move(fd));
}

Result<Endpoint> TcpListener::local_endpoint() const { return local_of(fd_.get()); }

Result<std::optional<TcpStream>> TcpListener::accept() {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  int fd;
  do {
    len = sizeof(sa);
    fd = ::accept4(fd_.get(), reinterpret_cast<sockaddr*>(&sa), &len,
                   SOCK_NONBLOCK | SOCK_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::optional<TcpStream>{};
    return sys_error("accept");
  }
  return std::optional<TcpStream>{TcpStream::from_accepted(Fd(fd), from_sockaddr(sa))};
}

}  // namespace ldp::net

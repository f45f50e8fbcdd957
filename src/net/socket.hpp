// Nonblocking socket wrappers: UDP datagram sockets and TCP streams with
// DNS 2-byte length framing (RFC 1035 §4.2.2). TLS is emulated at this
// layer as framed TCP with a configurable handshake delay — the replay
// engine and server need TLS's connection *behaviour* (extra round trips,
// session state), not actual cryptography (see DESIGN.md substitutions).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "net/event_loop.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/ip.hpp"

namespace ldp::net {

/// Process-wide datagram syscall accounting (relaxed atomics, negligible
/// hot-path cost): how many kernel crossings the UDP path pays and how many
/// datagrams they moved. The fig9 bench derives its syscalls/query metric
/// from deltas of this, which is the number the batched hot path exists to
/// push below 1.
struct IoCounters {
  uint64_t sendto_calls = 0;
  uint64_t recvfrom_calls = 0;
  uint64_t sendmmsg_calls = 0;
  uint64_t recvmmsg_calls = 0;
  uint64_t datagrams_sent = 0;
  uint64_t datagrams_received = 0;

  uint64_t syscalls() const {
    return sendto_calls + recvfrom_calls + sendmmsg_calls + recvmmsg_calls;
  }
  uint64_t datagrams() const { return datagrams_sent + datagrams_received; }

  /// Sum another snapshot into this one (the per-shard merge-after-join
  /// idiom: each shard thread snapshots its own counters before exiting,
  /// the owner merges after the joins — no locks, no atomics needed).
  void merge(const IoCounters& o) {
    sendto_calls += o.sendto_calls;
    recvfrom_calls += o.recvfrom_calls;
    sendmmsg_calls += o.sendmmsg_calls;
    recvmmsg_calls += o.recvmmsg_calls;
    datagrams_sent += o.datagrams_sent;
    datagrams_received += o.datagrams_received;
  }
};

/// Snapshot of the process-wide counters (monotonic since process start).
IoCounters io_counters();

/// Snapshot of the *calling thread's* counters (monotonic since thread
/// start; plain thread-local increments, so reading another thread's tally
/// is impossible by construction). A shard thread calls this right before
/// it exits and stashes the result where the joiner can merge it.
IoCounters thread_io_counters();

/// Convert between our Endpoint and sockaddr storage. The socket layer is
/// IPv4-only (the testbed runs on loopback); a non-IPv4 endpoint is an
/// addressing error, never silently mapped to 0.0.0.0.
struct SockAddr {
  uint32_t addr_host_order = 0;
  uint16_t port = 0;

  static Result<SockAddr> from_endpoint(const Endpoint& ep);
  Endpoint to_endpoint() const;
};

class UdpSocket {
 public:
  /// Bind to addr:port (port 0 picks an ephemeral port). With `reuse_port`
  /// the socket joins (or starts) an SO_REUSEPORT group: N sockets share
  /// the port and the kernel spreads inbound datagrams across them by
  /// flow hash — the per-core shard fan-out (every member must set the
  /// flag, and the first bind fixes the group's credentials).
  static Result<UdpSocket> bind(const Endpoint& local, bool reuse_port = false);
  /// Unbound socket for client use (bound implicitly on first send).
  static Result<UdpSocket> create();

  int fd() const { return fd_.get(); }
  Result<Endpoint> local_endpoint() const;

  /// Nonblocking send; returns false if the kernel buffer is full (caller
  /// retries on writable).
  Result<bool> send_to(const Endpoint& dst, std::span<const uint8_t> payload);

  struct Datagram {
    Endpoint from;
    std::vector<uint8_t> payload;
  };
  /// Nonblocking receive; nullopt when the socket would block.
  Result<std::optional<Datagram>> recv();

  // --- batched zero-copy path (sendmmsg/recvmmsg) --------------------------

  /// Datagrams per mmsg syscall. Send batches larger than this are chunked
  /// internally; recv_batch returns at most this many views per call.
  static constexpr size_t kBatchSize = 16;
  /// Per-slot capacity of the per-thread recv arena (max UDP payload).
  static constexpr size_t kRecvSlotBytes = 65536;

  struct OutDatagram {
    Endpoint dst;
    std::span<const uint8_t> payload;  ///< borrowed until the send call returns
  };

  /// Send many datagrams with sendmmsg. Returns how many the kernel
  /// accepted — always a *prefix* of `dgs`. A full buffer (EAGAIN/ENOBUFS)
  /// just shortens the prefix and is not an error; the caller retries the
  /// tail later, exactly like a false return from send_to. A hard error on
  /// the very first unsent datagram is returned as an Error; a hard error
  /// after partial progress reports the progress (retrying the tail will
  /// then surface the error with zero progress).
  Result<size_t> send_batch(std::span<const OutDatagram> dgs);

  struct RecvView {
    Endpoint from;
    std::span<const uint8_t> payload;  ///< view into the thread's recv arena
  };

  /// Receive up to kBatchSize datagrams in one recvmmsg into the calling
  /// thread's reusable arena (kBatchSize × kRecvSlotBytes, shared by every
  /// socket that thread drains) — no per-datagram allocation or copy. The
  /// returned views stay valid until the next recv_batch() call on this
  /// thread, on any socket: consume or copy them before draining another.
  /// An empty span means the socket would block.
  Result<std::span<const RecvView>> recv_batch();

 private:
  explicit UdpSocket(Fd fd) : fd_(std::move(fd)) {}
  Fd fd_;
};

/// A connected TCP stream carrying length-framed DNS messages.
class TcpStream {
 public:
  /// Begin a nonblocking connect; completion is signalled by writability.
  static Result<TcpStream> connect(const Endpoint& remote);
  /// Wrap an accepted fd.
  static TcpStream from_accepted(Fd fd, Endpoint peer);

  int fd() const { return fd_.get(); }
  const Endpoint& peer() const { return peer_; }

  /// Queue one DNS message (framing added) and try to flush. Returns the
  /// number of bytes still pending after the flush attempt.
  Result<size_t> send_message(std::span<const uint8_t> dns_payload);

  /// Flush pending output; returns bytes still pending. Call on writable.
  Result<size_t> flush();

  /// Pull bytes from the socket into the reassembly buffer and extract any
  /// complete DNS messages. Returns messages; sets `closed` when the peer
  /// shut down. Call on readable.
  Result<std::vector<std::vector<uint8_t>>> read_messages(bool& closed);

  size_t pending_bytes() const { return out_.size(); }
  /// Bytes of incomplete inbound frame(s) held for reassembly — the buffer
  /// a slow or hostile client grows; servers bound it (LimitsConfig).
  size_t partial_bytes() const { return in_.size(); }
  /// Estimated user-space buffer footprint (memory-model input).
  size_t buffer_footprint() const { return out_.size() + in_.size(); }

  /// Disable Nagle (§5.2.1 optimizes the client this way).
  Result<void> set_nodelay(bool on);

 private:
  TcpStream(Fd fd, Endpoint peer) : fd_(std::move(fd)), peer_(peer) {}
  Fd fd_;
  Endpoint peer_;
  std::vector<uint8_t> out_;  // unsent bytes (already framed)
  std::vector<uint8_t> in_;   // partial inbound frame(s)
};

// --- blocking control-channel primitives -----------------------------------
//
// The distributed-replay control channel (src/replay/dist/) runs over plain
// TCP but outside the event loop: frames are small, ordering matters, and the
// supervising side must never be killed by a worker that died mid-write.
// These helpers are the only sanctioned blocking socket paths in the tree —
// every one retries EINTR and writes with MSG_NOSIGNAL so a dead peer
// surfaces as an EPIPE Error, never a SIGPIPE.

/// Write the whole buffer, blocking as needed (poll()s on EAGAIN so it also
/// works on nonblocking fds). EPIPE/ECONNRESET come back as Errors with
/// sys_errno set.
Result<void> write_full(int fd, std::span<const uint8_t> buf);

/// Read exactly buf.size() bytes, blocking as needed. Returns false on a
/// clean EOF before the first byte (peer closed at a message boundary);
/// EOF mid-buffer is an error (truncated frame).
Result<bool> read_full(int fd, std::span<uint8_t> buf);

/// Blocking TCP connect with SO_CLOEXEC, retrying ECONNREFUSED until the
/// deadline — a worker process may race the controller's listen(). The
/// returned fd is in blocking mode.
Result<Fd> tcp_connect_blocking(const Endpoint& remote, TimeNs timeout);

class TcpListener {
 public:
  /// With `reuse_port`, N listeners share the port in an SO_REUSEPORT
  /// group and the kernel load-balances incoming connections across their
  /// accept queues (same sharding contract as UdpSocket::bind).
  static Result<TcpListener> listen(const Endpoint& local, int backlog = 512,
                                    bool reuse_port = false);

  int fd() const { return fd_.get(); }
  Result<Endpoint> local_endpoint() const;

  /// Accept one connection; nullopt when none is pending.
  Result<std::optional<TcpStream>> accept();

 private:
  explicit TcpListener(Fd fd) : fd_(std::move(fd)) {}
  Fd fd_;
};

}  // namespace ldp::net

// Deterministic, seed-driven network impairment (the adversary the replay
// fidelity claims must survive): a FaultSpec describes *what* a link does to
// packets — loss, duplication, reordering, delay/jitter, corruption, a
// blackhole window, periodic link flaps — and a FaultStream turns the spec
// into per-packet verdicts from a *named* PRNG stream, so every scenario is
// exactly reproducible and independent of how sources are partitioned
// across queriers or controllers (the stream name, not thread interleaving,
// decides the draw sequence).
//
// Determinism contract: a stream consumes a fixed number of draws per
// packet regardless of the verdicts it hands out, so the decision for
// packet k depends only on (seed, stream name, k) — plus the packet time
// for the window-based impairments (blackhole, flap), which are pure
// functions of time. Payload corruption draws from a separate engine so
// variable-length corruption never perturbs the decision sequence.
//
// Three consumers share these scenario definitions (DESIGN.md insertion
// diagram): the net/ socket shim (real-socket replay + server frontend),
// the proxy pipeline, and the simnet discrete-event hook.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.hpp"
#include "util/metrics.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace ldp::fault {

/// Per-impairment event counts. Mergeable like LifecycleCounters so
/// per-querier / per-stream instances combine without locks, and
/// equality-comparable so regression tests can assert byte-identical
/// scenario outcomes across runs.
struct ImpairmentCounters {
  uint64_t processed = 0;    ///< packets offered to the stream
  uint64_t dropped = 0;      ///< random loss
  uint64_t blackholed = 0;   ///< dropped inside the blackhole window
  uint64_t flap_dropped = 0; ///< dropped while the link was flapped down
  uint64_t duplicated = 0;   ///< delivered twice
  uint64_t corrupted = 0;    ///< delivered with flipped bytes
  uint64_t reordered = 0;    ///< held back past later packets
  uint64_t delayed = 0;      ///< given extra latency (delay/jitter)

  uint64_t lost() const { return dropped + blackholed + flap_dropped; }

  /// The one list of these counters (see LifecycleCounters::fields).
  template <class F, class... R>
  static void fields(F&& f, R&... r) {
    f("processed", metrics::Merge::Sum, r.processed...);
    f("dropped", metrics::Merge::Sum, r.dropped...);
    f("blackholed", metrics::Merge::Sum, r.blackholed...);
    f("flap_dropped", metrics::Merge::Sum, r.flap_dropped...);
    f("duplicated", metrics::Merge::Sum, r.duplicated...);
    f("corrupted", metrics::Merge::Sum, r.corrupted...);
    f("reordered", metrics::Merge::Sum, r.reordered...);
    f("delayed", metrics::Merge::Sum, r.delayed...);
  }

  void merge(const ImpairmentCounters& o) { metrics::merge_fields(*this, o); }
  bool operator==(const ImpairmentCounters& o) const = default;

  /// "drop 12  dup 3 ..." single-line report for tools and tests.
  std::string summary() const;
};

/// A named impairment scenario. Probabilities are per-packet in [0,1];
/// times are nanoseconds. Default-constructed == transparent link.
struct FaultSpec {
  double drop = 0;     ///< random loss probability
  double dup = 0;      ///< duplication probability
  double reorder = 0;  ///< probability a packet is held back reorder_gap
  double corrupt = 0;  ///< probability of byte corruption
  TimeNs reorder_gap = 10 * kMilli;  ///< how far a reordered packet lags
  TimeNs delay = 0;    ///< fixed extra one-way latency
  TimeNs jitter = 0;   ///< uniform extra latency in [0, jitter)
  /// Blackhole window [start, end) relative to the stream's first packet:
  /// everything inside is dropped (a routing outage). Disabled when
  /// end <= start.
  TimeNs blackhole_start = 0;
  TimeNs blackhole_end = 0;
  /// Periodic link flap: every `flap_period`, the link is down for the
  /// first `flap_down` of the period (measured from the stream's first
  /// packet). Disabled when either is 0. On TCP message paths a flap drop
  /// is surfaced as a connection loss (the link went away under the
  /// connection), exercising reconnect.
  TimeNs flap_period = 0;
  TimeNs flap_down = 0;
  uint64_t seed = 1;
  size_t corrupt_max_bytes = 4;  ///< bytes flipped per corrupted packet (>=1)
  /// Process-failure injection ("querier_stall:<id>@<delay>"): the querier
  /// with this engine-global id wedges (stops heartbeating and processing)
  /// `stall_after` into its run, exercising the supervision/recovery layer.
  /// Not a link impairment: enabled() ignores it, and no PRNG draws are
  /// consumed — the stall is a pure function of (id, time). -1 = disabled.
  int64_t stall_querier = -1;
  TimeNs stall_after = 0;
  /// Slowloris injection ("slow_client:<prob>[,drip:<interval>]"): each TCP
  /// connection is independently a "slow client" with this probability — it
  /// dribbles one byte of a framed query every `slow_drip` instead of
  /// completing messages, pinning a server connection slot until the
  /// server's slow-client defenses (read deadline / partial-buffer cap)
  /// close it. Like querier_stall this is a behaviour knob, not a link
  /// impairment: enabled() ignores it, no stream draws are consumed, and
  /// the decision for connection k is a pure function of (seed, k) — see
  /// is_slow_client().
  double slow_client = 0;
  TimeNs slow_drip = 100 * kMilli;

  /// Deterministic slowloris verdict for the `conn_index`-th connection a
  /// querier opens (per-querier open order — a thread-shared counter would
  /// make the mix depend on scheduling): pure function of (seed,
  /// conn_index), independent of any FaultStream's draw position.
  bool is_slow_client(uint64_t conn_index) const;

  /// Anything to do at all? (Counters still run when false.)
  bool enabled() const;
  /// Canonical "loss:0.05,reorder:0.01,seed:42" form (parse round-trips).
  std::string to_string() const;
};

/// Parse "loss:0.05,dup:0.01,reorder:0.02,gap:20ms,delay:5ms,jitter:2ms,
/// corrupt:0.01,blackhole:2s-3s,flap:500ms/100ms,slow_client:0.3,drip:50ms,
/// seed:42". Keys may appear in any order; unknown keys, bad numbers, and
/// out-of-range probabilities are errors. Durations accept ns/us/ms/s
/// suffixes (bare numbers are ms).
Result<FaultSpec> parse_fault_spec(std::string_view text);

/// Parse one duration token ("20ms", "2s", "1500us", "5" = 5 ms). Shared by
/// the fault spec and the server --limits/--overload mini-languages so every
/// operator-facing knob accepts the same duration syntax.
Result<TimeNs> parse_duration(std::string_view text);

/// What a FaultStream decided to do with one packet.
enum class Action : uint8_t {
  Deliver = 0,    ///< pass through (possibly with extra_delay)
  Drop = 1,       ///< eat the packet silently
  Duplicate = 2,  ///< deliver twice
  Corrupt = 3,    ///< deliver with flipped bytes (use FaultStream::corrupt)
};

/// Why a Drop happened — TCP integration maps Flap to connection loss.
enum class DropReason : uint8_t { None = 0, Loss = 1, Blackhole = 2, Flap = 3 };

struct Verdict {
  Action action = Action::Deliver;
  DropReason reason = DropReason::None;
  /// Extra one-way latency (reorder hold-back + delay + jitter). Meaningful
  /// for non-Drop actions; consumers without a clock (the proxy pipeline)
  /// may deliver immediately — the decision sequence is unaffected.
  TimeNs extra_delay = 0;

  bool is_drop() const { return action == Action::Drop; }
};

/// One named decision stream over a FaultSpec. Not thread-safe: each
/// consumer (socket, connection, pipeline reader) owns its stream.
class FaultStream {
 public:
  FaultStream(const FaultSpec& spec, std::string_view name);

  /// Resumable draw position (checkpoint/resume): how many packets this
  /// stream has decided and how many raw words the corruption engine has
  /// consumed, cumulative across restores. `origin_offset` anchors the
  /// blackhole/flap windows relative to the caller's replay origin
  /// (real_origin), so a resumed replay re-derives the same trace-relative
  /// windows on a fresh monotonic timeline; kNoOrigin = not latched yet
  /// (the offset itself may be negative in fast mode, so -1 won't do).
  static constexpr TimeNs kNoOrigin = INT64_MIN;
  struct Position {
    uint64_t packets = 0;
    uint64_t corrupt_words = 0;
    TimeNs origin_offset = kNoOrigin;

    bool operator==(const Position& o) const = default;
  };

  /// Current cumulative position, with the window origin expressed relative
  /// to `real_origin`.
  Position position(TimeNs real_origin) const;

  /// Fast-forward a fresh stream to `pos`: burns exactly the draws the
  /// first `pos.packets` packets (and corrupt words) consumed, without
  /// touching the counters, so the next packet after restore sees the same
  /// verdict it would have seen in an uninterrupted run. Call before the
  /// first next().
  void restore(const Position& pos, TimeNs real_origin);

  /// Decide one packet's fate at time `now` (monotonic or virtual — only
  /// differences matter; the first call latches the stream origin for the
  /// blackhole/flap windows).
  Verdict next(TimeNs now);

  /// Flip 1..corrupt_max_bytes bytes in place (deterministic draws from the
  /// stream's corruption engine). No-op on an empty payload.
  void corrupt(std::vector<uint8_t>& payload);

  const ImpairmentCounters& counters() const { return counters_; }
  const std::string& name() const { return name_; }

 private:
  FaultSpec spec_;
  std::string name_;
  Rng decide_;   ///< fixed draws/packet — the determinism contract
  Rng corrupt_;  ///< variable draws, isolated from decisions
  TimeNs origin_ = -1;  ///< latched at the first packet
  ImpairmentCounters counters_;
  // Cumulative draw accounting for checkpoint/resume: restored base plus
  // what this incarnation consumed.
  uint64_t packets_base_ = 0;
  uint64_t corrupt_words_base_ = 0;
  uint64_t corrupt_words_ = 0;
};

/// Stable stream seed: spec.seed combined with an FNV-1a hash of the stream
/// name, so "udp:10.0.0.1" draws the same sequence in every run and in
/// every process that names it identically.
uint64_t stream_seed(uint64_t base_seed, std::string_view name);

}  // namespace ldp::fault

// Deterministic checkpoint/resume for the replay engine: a CheckpointState
// snapshots everything a fixed-seed replay needs to continue after the
// process dies — per-source trace positions (how many queries of each
// source are already on the wire), the draw positions of every named fault
// stream, the merged counters/histogram so far, and the in-flight queries
// with their payloads so a resumed run can adopt and resend them.
//
// The cut is per-querier consistent: each querier publishes its own
// snapshot atomically, so a source's sent-count, stream position and
// pending list always agree with each other. Queries sent after the last
// snapshot but before the kill are re-sent exactly once on resume (their
// sent-counts weren't recorded), so queries_sent totals stay exact; the
// probability-driven impairment counters are draw-order independent, and
// the window faults (blackhole, flap) re-anchor via origin offsets stored
// relative to the replay clock origin.
//
// Files are plain line-oriented text, written atomically (tmp + rename) so
// a kill mid-write leaves the previous snapshot intact.
#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "replay/engine.hpp"
#include "trace/record.hpp"
#include "util/result.hpp"
#include "util/transport.hpp"

namespace ldp::replay {

/// One in-flight query captured at the cut: enough to resend it on resume
/// (payload + transport + source for socket routing) and to resolve its
/// original send record when the answer finally arrives.
struct CheckpointPending {
  SendRecord record;  ///< outcome Pending; send_time reset on adoption
  Transport transport = Transport::Udp;
  uint32_t retries_used = 0;
  std::vector<uint8_t> payload;
};

struct CheckpointState {
  uint64_t trace_hash = 0;     ///< fingerprint of the trace being replayed
  uint64_t trace_queries = 0;  ///< query records in that trace
  /// Counters and latency histogram accumulated before the cut. `sends`
  /// is not serialized (per-record fidelity data does not survive a kill;
  /// the resumed report carries only the resumed portion's records).
  EngineReport partial;
  std::vector<CheckpointPending> pending;
  /// Named fault-stream draw positions ("udp:<src>" / "tcp:<src>").
  std::map<std::string, fault::FaultStream::Position> streams;
  /// Cumulative queries sent per original trace source (keys are the
  /// canonical IpAddr string form). The resume path skips this many query
  /// records of each source before sending again.
  std::map<std::string, uint64_t> sent;
};

/// Stable fingerprint of a trace (timestamps, sources, payload shapes) so
/// resume refuses to continue a checkpoint against a different trace.
uint64_t trace_fingerprint(const std::vector<trace::TraceRecord>& trace);

/// trace_fingerprint built one query record at a time, so a sharded replay
/// can fingerprint each shard's slice without copying it out.
class TraceFingerprint {
 public:
  void add(const trace::TraceRecord& rec);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;  // FNV-1a offset basis
};

/// The keyed text in which both the checkpoint and the worker REPORT carry
/// an EngineReport's counters: one `counter <name> <value>` line for each
/// counter EngineReport::fields declares, and one
/// `hist <count> <min> <max> <sum> <bucket 0> ... <bucket 64>` line for the
/// latency histogram (the sum as a hex float, so it round-trips exactly).
/// The span and the send records are not part of it.
void write_counters(std::ostream& os, const EngineReport& r);

/// Parse a keyed text payload: the `magic` first line, then one record per
/// line up to `end`. Counter and histogram lines go into `counters`; every
/// other line's key and the rest of the line go to `record`, which rejects
/// keys it does not know. Version skew is an error that names the field: a
/// counter this build does not declare, one given twice, or a declared one
/// the text lacks. `what` names the payload in errors.
using KeyedRecordFn =
    std::function<Result<void>(const std::string& key, std::istream& rest)>;
Result<void> read_keyed(const std::string& text, std::string_view magic,
                        const std::string& what, EngineReport& counters,
                        const KeyedRecordFn& record);

/// The checkpoint wire form: the same line-oriented text the file holds.
/// Split out from the file I/O so the distributed control channel can carry
/// snapshots in CHECKPOINT/ASSIGN frames without touching disk.
std::string serialize_checkpoint(const CheckpointState& state);
Result<CheckpointState> parse_checkpoint(const std::string& text);

/// Atomic write: the file at `path` is either the previous snapshot or the
/// new one, never a torn mix.
Result<void> save_checkpoint(const std::string& path,
                             const CheckpointState& state);

Result<CheckpointState> load_checkpoint(const std::string& path);

/// Per-shard snapshot naming for sharded runs: `<path>.shard<N>`. Each shard
/// checkpoints its own slice; resume loads all of them back.
std::string shard_checkpoint_path(const std::string& path, size_t shard);

/// Load `<path>.shard0` … `<path>.shard<N-1>` for a `--shards N` resume.
/// A missing shard file means the run died before that shard's first
/// snapshot: its slot comes back default-constructed (trace_hash 0) and the
/// engine replays that slice from the start — the same "everything after the
/// last snapshot is re-sent exactly once" contract as the single-shard path.
/// At least one shard file must exist, otherwise there is nothing to resume.
Result<std::vector<CheckpointState>> load_sharded_checkpoints(
    const std::string& path, size_t shards);

}  // namespace ldp::replay

// Lightweight replay metrics: a log2-bucketed latency histogram, the
// counter merge rule and the query-lifecycle counter bundle the engine
// threads through Querier → distributor group → QueryEngine into
// EngineReport, all mergeable without locks (each querier owns its copy;
// merging happens after the threads join).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

namespace ldp::metrics {

/// Fixed-size histogram over non-negative int64 samples (nanoseconds in
/// practice). Buckets are powers of two — bucket b counts samples in
/// [2^(b-1), 2^b) — so add() is O(1) with no allocation, and quantiles are
/// answered by linear interpolation inside the winning bucket. Accuracy is
/// within a factor of 2 per bucket, which is plenty for the latency
/// distributions the replay reports (the exact Sampler stays available for
/// bench-side analysis of raw send records).
class Histogram {
 public:
  void add(int64_t v);
  void merge(const Histogram& o);

  uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  int64_t min() const { return count_ > 0 ? min_ : 0; }
  int64_t max() const { return count_ > 0 ? max_ : 0; }
  double mean() const;
  /// Approximate quantile, q in [0,1].
  double quantile(double q) const;

  /// "p50 1.2ms  p90 3.4ms  p99 9.1ms (n=...)" for tool/bench output.
  std::string summary_ms() const;

  // Raw-state access for checkpoint serialization: the log2 buckets plus the
  // exact running sum round-trip a histogram losslessly across a resume.
  static constexpr size_t kBuckets = 65;
  uint64_t bucket_value(size_t b) const { return b < kBuckets ? buckets_[b] : 0; }
  double sum() const { return sum_; }
  void restore_state(const std::array<uint64_t, kBuckets>& buckets,
                     uint64_t count, int64_t min, int64_t max, double sum) {
    buckets_ = buckets;
    count_ = count;
    min_ = min;
    max_ = max;
    sum_ = sum;
  }

 private:
  static size_t bucket_of(int64_t v);

  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  double sum_ = 0;
};

/// How two partial values of one counter combine: event counts add up,
/// high-water marks keep the larger.
enum class Merge : uint8_t { Sum, Max };

/// Fold `from` into `into` counter by counter, each by its declared Merge
/// kind. T is any counter bundle with a static `fields` list.
template <class T>
void merge_fields(T& into, const T& from) {
  T::fields(
      [](const char*, Merge kind, auto& v, const auto& o) {
        v = kind == Merge::Sum ? v + o : std::max(v, o);
      },
      into, from);
}

/// Per-query lifecycle accounting (sent → answered / timed-out / errored).
/// Every counter is an event count, not a query count, except `expired`
/// which counts queries permanently given up on; invariants the tests rely
/// on: timeouts == retries + expired-by-timeout, and
/// responses + expired + in-flight == queries inserted.
struct LifecycleCounters {
  uint64_t timeouts = 0;             ///< deadline fired on an in-flight query
  uint64_t retries = 0;              ///< retransmits / resends actually issued
  uint64_t expired = 0;              ///< queries abandoned (timeout budget spent,
                                     ///< connection lost, or engine shutdown)
  uint64_t abandoned = 0;            ///< of `expired`: still pending when the
                                     ///< drain grace ended the run
  uint64_t duplicate_ids = 0;        ///< DNS-ID collisions among live queries
  uint64_t tcp_reconnects = 0;       ///< connections re-established to resend
  uint64_t answered_after_retry = 0; ///< answers that needed ≥1 retransmit
  uint64_t deferred_sends = 0;       ///< sends delayed by a full kernel buffer
  uint64_t unmatched_responses = 0;  ///< responses with no live pending entry
  uint64_t socket_errors = 0;        ///< recv/read errors surfaced by the net layer
  uint64_t adopted_resends = 0;      ///< in-flight queries resent after a querier
                                     ///< failure or a checkpoint resume

  /// The one list of these counters: calls f(name, kind, r.counter...) for
  /// each counter of every bundle in `r` at once (one bundle to read or
  /// write it, two to merge). A counter declared here is merged,
  /// checkpointed and carried in the worker REPORT with no other change.
  template <class F, class... R>
  static void fields(F&& f, R&... r) {
    f("timeouts", Merge::Sum, r.timeouts...);
    f("retries", Merge::Sum, r.retries...);
    f("expired", Merge::Sum, r.expired...);
    f("abandoned", Merge::Sum, r.abandoned...);
    f("duplicate_ids", Merge::Sum, r.duplicate_ids...);
    f("tcp_reconnects", Merge::Sum, r.tcp_reconnects...);
    f("answered_after_retry", Merge::Sum, r.answered_after_retry...);
    f("deferred_sends", Merge::Sum, r.deferred_sends...);
    f("unmatched_responses", Merge::Sum, r.unmatched_responses...);
    f("socket_errors", Merge::Sum, r.socket_errors...);
    f("adopted_resends", Merge::Sum, r.adopted_resends...);
  }

  void merge(const LifecycleCounters& o) { merge_fields(*this, o); }
};

}  // namespace ldp::metrics

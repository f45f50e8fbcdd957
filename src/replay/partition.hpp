// The one sticky-by-source partition rule, shared by every fan-out level:
// worker processes (dist::partition_by_source), engine shards, distributor
// groups and the queriers inside a group. Each new source takes the next
// slot in round-robin order of first appearance and keeps it, so all of a
// source's queries — and with them its sockets, connections and per-source
// fault stream — land in one place, and the split is a deterministic
// function of the trace.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "util/ip.hpp"

namespace ldp::replay {

class SourcePartition {
 public:
  explicit SourcePartition(size_t slots) : slots_(slots) {}

  /// Slot owning `source`, placing it on first appearance.
  size_t place(const IpAddr& source) {
    if (slots_ == 1) return 0;
    return place(source, [](size_t) { return true; });
  }

  /// Same, skipping slots `usable` rejects (a dead querier): a source whose
  /// slot became unusable is placed again. SIZE_MAX when no slot is usable.
  template <typename Usable>
  size_t place(const IpAddr& source, Usable&& usable) {
    auto it = slot_of_.find(source);
    if (it != slot_of_.end() && usable(it->second)) return it->second;
    for (size_t tries = 0; tries < slots_; ++tries) {
      size_t slot = next_++ % slots_;
      if (usable(slot)) {
        slot_of_[source] = slot;
        return slot;
      }
    }
    return SIZE_MAX;
  }

  /// Move every source placed on `from` to `to`; returns how many moved.
  uint64_t move_all(size_t from, size_t to) {
    uint64_t moved = 0;
    for (auto& [source, slot] : slot_of_) {
      if (slot != from) continue;
      slot = to;
      ++moved;
    }
    return moved;
  }

 private:
  size_t slots_;
  size_t next_ = 0;
  std::unordered_map<IpAddr, size_t, IpAddrHash> slot_of_;
};

}  // namespace ldp::replay

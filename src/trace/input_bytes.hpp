// The bytes a trace reader parses (pcap, ERF, LDPB): either a buffer the
// caller hands over (from_bytes) or a read-only mapping of a trace file
// (open). Mapping lets the kernel serve the file straight from the page
// cache instead of copying it onto the heap, so loading a trace allocates
// only the records it yields.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/result.hpp"

namespace ldp::trace {

class InputBytes {
 public:
  InputBytes() = default;
  explicit InputBytes(std::vector<uint8_t> owned) : owned_(std::move(owned)) {}

  /// Map `path` read-only. The file must not shrink while it is mapped.
  static Result<InputBytes> map_file(const std::string& path);

  InputBytes(InputBytes&& other) noexcept;
  InputBytes& operator=(InputBytes&& other) noexcept;
  InputBytes(const InputBytes&) = delete;
  InputBytes& operator=(const InputBytes&) = delete;
  ~InputBytes();

  std::span<const uint8_t> span() const {
    return map_ != nullptr ? std::span<const uint8_t>(map_, map_len_)
                           : std::span<const uint8_t>(owned_);
  }
  size_t size() const { return span().size(); }

 private:
  void unmap();

  std::vector<uint8_t> owned_;
  const uint8_t* map_ = nullptr;
  size_t map_len_ = 0;
};

}  // namespace ldp::trace

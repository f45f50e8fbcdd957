#include "trace/input_bytes.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <utility>

namespace ldp::trace {

Result<InputBytes> InputBytes::map_file(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Err("cannot open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return Err("cannot open " + path + ": not a regular file");
  }
  InputBytes in;
  auto len = static_cast<size_t>(st.st_size);
  if (len > 0) {
    // MAP_POPULATE maps every page the page cache already holds in this
    // one call, instead of one page fault per few pages during the parse.
    void* p = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE | MAP_POPULATE, fd, 0);
    if (p == MAP_FAILED) {
      ::close(fd);
      return Err("cannot map " + path);
    }
    in.map_ = static_cast<const uint8_t*>(p);
    in.map_len_ = len;
  }
  ::close(fd);  // the mapping keeps the file alive
  return in;
}

InputBytes::InputBytes(InputBytes&& other) noexcept
    : owned_(std::move(other.owned_)),
      map_(std::exchange(other.map_, nullptr)),
      map_len_(std::exchange(other.map_len_, 0)) {}

InputBytes& InputBytes::operator=(InputBytes&& other) noexcept {
  if (this != &other) {
    unmap();
    owned_ = std::move(other.owned_);
    map_ = std::exchange(other.map_, nullptr);
    map_len_ = std::exchange(other.map_len_, 0);
  }
  return *this;
}

InputBytes::~InputBytes() { unmap(); }

void InputBytes::unmap() {
  if (map_ != nullptr) ::munmap(const_cast<uint8_t*>(map_), map_len_);
  map_ = nullptr;
  map_len_ = 0;
}

}  // namespace ldp::trace

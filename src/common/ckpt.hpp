#pragma once

// Shared container framing for the binary checkpoint formats
// (SDMP parameters, SDMV grids, SDMT tensors, SDMS train state).
//
// v2 wire format (DESIGN.md §10):
//
//   [magic 4B][version i64][payload_size i64][payload][crc32 u32]
//
// The CRC covers the payload bytes; payload_size makes truncation at any
// boundary detectable without relying on the parser running off the end.
// v1 files ([magic][version][payload]) are still readable: the reader hands
// back the remaining bytes unverified and the per-format parsers apply the
// same section-level truncation checks they always had.
//
// Writers are atomic: the framed container is assembled in memory and
// replaces the target via atomic_write_file, so a crash mid-save never
// leaves a torn checkpoint.

#include <cstdint>
#include <string>
#include <vector>

namespace sdmpeb::ckpt {

/// Append-only payload assembler.
class PayloadWriter {
 public:
  template <typename T>
  void pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&value, sizeof(T));
  }
  void bytes(const void* data, std::size_t size);
  void i64(std::int64_t v) { pod(v); }

  const std::string& buffer() const { return buffer_; }

 private:
  std::string buffer_;
};

/// Bounds-checked payload parser; throws sdmpeb::Error with the source path
/// on any attempt to read past the end (covers v1 truncation).
class PayloadReader {
 public:
  PayloadReader(std::string payload, std::string path)
      : payload_(std::move(payload)), path_(std::move(path)) {}

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    bytes(&value, sizeof(T));
    return value;
  }
  void bytes(void* out, std::size_t size);
  std::int64_t i64() { return pod<std::int64_t>(); }

  /// Throw unless an array with these dims of `elem_size`-byte elements
  /// fits in the bytes left. Loaders call it before allocating what a file
  /// declares.
  void expect_array(const std::vector<std::int64_t>& dims,
                    std::size_t elem_size) const;
  /// Throw unless every payload byte has been read.
  void expect_end() const;

  std::size_t remaining() const { return payload_.size() - pos_; }
  const std::string& path() const { return path_; }

 private:
  std::string payload_;
  std::size_t pos_ = 0;
  std::string path_;
};

/// Frame `payload` as a v2 container and atomically replace `path`.
void write_container(const std::string& path, const char magic[4],
                     std::int64_t version, const std::string& payload);

struct Container {
  std::int64_t version = 0;
  PayloadReader payload;
};

/// Open, frame-check and (for v2) CRC-verify a container. `kind` names the
/// format in error messages ("parameter checkpoint", "grid file", ...).
/// Accepts versions 1..max_version; v1 payloads are the file remainder with
/// no integrity data.
Container read_container(const std::string& path, const char magic[4],
                         std::int64_t max_version, const char* kind);

}  // namespace sdmpeb::ckpt

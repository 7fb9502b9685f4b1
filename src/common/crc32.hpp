#pragma once

#include <cstddef>
#include <cstdint>

namespace sdmpeb {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum used
/// by the v2 binary checkpoint formats (SDMP/SDMV/SDMS) to reject
/// bit-flipped or truncated payloads before they are interpreted. Table
/// driven, byte at a time: plenty fast for checkpoint-sized buffers and
/// trivially portable.
class Crc32 {
 public:
  /// Incremental update: feed buffers in any chunking, same digest.
  void update(const void* data, std::size_t size);

  /// Digest of everything fed so far (finalised; update() may continue).
  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

  void reset() { state_ = 0xFFFFFFFFu; }

  /// One-shot convenience.
  static std::uint32_t compute(const void* data, std::size_t size);

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace sdmpeb

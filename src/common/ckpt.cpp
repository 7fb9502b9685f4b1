#include "common/ckpt.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"

namespace sdmpeb::ckpt {

void PayloadWriter::bytes(const void* data, std::size_t size) {
  buffer_.append(static_cast<const char*>(data), size);
}

void PayloadReader::bytes(void* out, std::size_t size) {
  SDMPEB_CHECK_MSG(size <= remaining(),
                   "truncated payload in " << path_ << " (need " << size
                                           << " bytes at offset " << pos_
                                           << ", have " << remaining()
                                           << ")");
  if (size == 0) return;  // an empty tensor has no buffer to copy into
  std::memcpy(out, payload_.data() + pos_, size);
  pos_ += size;
}

void PayloadReader::expect_array(const std::vector<std::int64_t>& dims,
                                 std::size_t elem_size) const {
  bool empty = false;
  for (const auto d : dims) {
    SDMPEB_CHECK_MSG(d >= 0, path_ << ": negative array dimension " << d);
    empty = empty || d == 0;
  }
  if (empty) return;
  // Divide instead of multiplying, so lying dims cannot overflow the count:
  // after each dim, `fits` bounds the product of the dims still to come.
  std::uint64_t fits = remaining() / elem_size;
  for (const auto d : dims) {
    SDMPEB_CHECK_MSG(static_cast<std::uint64_t>(d) <= fits,
                     "truncated payload in "
                         << path_ << " (declared array dimension " << d
                         << " of " << elem_size << "-byte elements exceeds the "
                         << remaining() << " bytes left)");
    fits /= static_cast<std::uint64_t>(d);
  }
}

void PayloadReader::expect_end() const {
  SDMPEB_CHECK_MSG(remaining() == 0, path_ << ": " << remaining()
                                           << " trailing payload bytes");
}

void write_container(const std::string& path, const char magic[4],
                     std::int64_t version, const std::string& payload) {
  std::string framed;
  framed.reserve(payload.size() + 24);
  framed.append(magic, 4);
  framed.append(reinterpret_cast<const char*>(&version), sizeof(version));
  const auto payload_size = static_cast<std::int64_t>(payload.size());
  framed.append(reinterpret_cast<const char*>(&payload_size),
                sizeof(payload_size));
  framed.append(payload);
  const std::uint32_t crc = Crc32::compute(payload.data(), payload.size());
  framed.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  atomic_write_file(path, framed);
}

Container read_container(const std::string& path, const char magic[4],
                         std::int64_t max_version, const char* kind) {
  std::ifstream in(path, std::ios::binary);
  SDMPEB_CHECK_MSG(in.good(), "cannot open " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  SDMPEB_CHECK_MSG(in.good() || in.eof(), "read of " << path << " failed");
  const std::string file = buf.str();

  SDMPEB_CHECK_MSG(file.size() >= 4 + sizeof(std::int64_t) &&
                       std::memcmp(file.data(), magic, 4) == 0,
                   path << " is not a " << kind);
  std::int64_t version = 0;
  std::memcpy(&version, file.data() + 4, sizeof(version));
  SDMPEB_CHECK_MSG(version >= 1 && version <= max_version,
                   "unsupported " << kind << " version " << version << " in "
                                  << path);

  std::size_t offset = 4 + sizeof(std::int64_t);
  if (version == 1) {
    // Legacy stream: everything after the header is payload, no CRC.
    return Container{version, PayloadReader(file.substr(offset), path)};
  }

  SDMPEB_CHECK_MSG(file.size() >= offset + sizeof(std::int64_t),
                   path << ": truncated " << kind << " (missing payload size)");
  std::int64_t payload_size = 0;
  std::memcpy(&payload_size, file.data() + offset, sizeof(payload_size));
  offset += sizeof(payload_size);
  SDMPEB_CHECK_MSG(payload_size >= 0,
                   path << ": corrupt " << kind << " (negative payload size)");
  const auto size = static_cast<std::size_t>(payload_size);
  const std::size_t end = offset + size + sizeof(std::uint32_t);
  SDMPEB_CHECK_MSG(
      file.size() >= end,
      path << ": truncated " << kind << " (declared payload " << size
           << " bytes, file holds " << (file.size() - offset) << ")");
  SDMPEB_CHECK_MSG(file.size() == end,
                   path << ": corrupt " << kind << " (" << (file.size() - end)
                        << " trailing bytes after the CRC)");

  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, file.data() + offset + size, sizeof(stored_crc));
  const std::uint32_t actual_crc = Crc32::compute(file.data() + offset, size);
  SDMPEB_CHECK_MSG(stored_crc == actual_crc,
                   path << ": " << kind
                        << " failed CRC32 integrity check (stored 0x"
                        << std::hex << stored_crc << ", computed 0x"
                        << actual_crc << std::dec
                        << ") — file is corrupt or was bit-flipped");
  return Container{version, PayloadReader(file.substr(offset, size), path)};
}

}  // namespace sdmpeb::ckpt

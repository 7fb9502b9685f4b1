#pragma once

#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace sdmpeb::testing {

/// Where a binary format keeps one of its declared sizes (a dim, a count, a
/// rank, a version): a little-endian unsigned field of `width` bytes.
struct SizeField {
  std::size_t offset;
  std::size_t width;  ///< 4 or 8
};

/// One seeded mutant of `bytes`: one to three edits, each a bit flip, a
/// truncation, appended trailing bytes, or a lying value written over one
/// of `fields` (zero, one, off by one, doubled, or far too large).
inline std::string mutate(const std::string& bytes,
                          const std::vector<SizeField>& fields, Rng& rng) {
  std::string out = bytes;
  const auto last = [](std::size_t n) {
    return static_cast<std::int64_t>(n) - 1;
  };
  for (auto edits = rng.uniform_int(1, 3); edits > 0; --edits) {
    switch (rng.uniform_int(0, 3)) {
      case 0: {  // bit flip
        if (out.empty()) break;
        const auto at =
            static_cast<std::size_t>(rng.uniform_int(0, last(out.size())));
        out[at] = static_cast<char>(out[at] ^ (1 << rng.uniform_int(0, 7)));
        break;
      }
      case 1:  // truncation
        out.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(out.size()))));
        break;
      case 2:  // trailing bytes
        for (auto n = rng.uniform_int(1, 16); n > 0; --n)
          out.push_back(static_cast<char>(rng.uniform_int(0, 255)));
        break;
      default: {  // lying size
        const SizeField& field = fields[static_cast<std::size_t>(
            rng.uniform_int(0, last(fields.size())))];
        if (field.offset + field.width > out.size()) break;
        std::uint64_t value = 0;
        std::memcpy(&value, out.data() + field.offset, field.width);
        const std::uint64_t lies[] = {0,          1,
                                      value + 1,  value - 1,
                                      value * 2,  100000,
                                      1ull << 20, 1ull << 31,
                                      1ull << 32, 1ull << 40,
                                      1ull << 62, ~0ull,
                                      rng.next_u64()};
        value = lies[rng.uniform_int(0, last(std::size(lies)))];
        std::memcpy(out.data() + field.offset, &value, field.width);
        break;
      }
    }
  }
  return out;
}

/// The rule for a parser of untrusted bytes: every seeded mutant of `valid`
/// either makes `decode` throw sdmpeb::Error or decodes to a value that
/// `encode` turns back into exactly the mutant. Both outcomes must occur,
/// or the mutants missed the parser. The exception is a checksummed file
/// mutated whole (`expect_decodes = false`): its mutants decode only where
/// the edits cancel out, so only the rejections are required.
template <typename Decode, typename Encode>
void expect_mutants_round_trip_or_throw(const std::string& valid,
                                        const std::vector<SizeField>& fields,
                                        int mutants, Decode decode,
                                        Encode encode,
                                        bool expect_decodes = true) {
  Rng rng(2025);
  int decoded = 0, rejected = 0;
  for (int i = 0; i < mutants; ++i) {
    const std::string mutant = mutate(valid, fields, rng);
    std::optional<decltype(decode(mutant))> value;
    try {
      value.emplace(decode(mutant));
    } catch (const Error&) {
      ++rejected;
      continue;
    }
    ++decoded;
    ASSERT_TRUE(encode(*value) == mutant)
        << "mutant " << i << " decodes but re-encodes differently";
  }
  if (expect_decodes) {
    EXPECT_GT(decoded, 0);
  }
  EXPECT_GT(rejected, 0);
}

}  // namespace sdmpeb::testing

#pragma once

#include <string>

#include "tensor/grid3.hpp"

namespace sdmpeb::io {

/// Save / load a Grid3 as a small self-describing binary file: the common
/// checksummed container (magic "SDMV", version 2, CRC32, atomic rename —
/// DESIGN.md §10) around (dims as int64, payload as float64 little-endian).
/// Used to cache rigorous-solver ground truth between bench runs. Loads
/// pre-checksum v1 files too.
void save_grid(const Grid3& grid, const std::string& path);
Grid3 load_grid(const std::string& path);

}  // namespace sdmpeb::io

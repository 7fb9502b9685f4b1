#include "io/volume_io.hpp"

#include "common/ckpt.hpp"
#include "common/error.hpp"

namespace sdmpeb::io {

namespace {

constexpr char kGridMagic[4] = {'S', 'D', 'M', 'V'};
constexpr std::int64_t kVersion = 2;

}  // namespace

void save_grid(const Grid3& grid, const std::string& path) {
  ckpt::PayloadWriter payload;
  payload.i64(grid.depth());
  payload.i64(grid.height());
  payload.i64(grid.width());
  payload.bytes(grid.data().data(),
                static_cast<std::size_t>(grid.numel()) * sizeof(double));
  ckpt::write_container(path, kGridMagic, kVersion, payload.buffer());
}

Grid3 load_grid(const std::string& path) {
  auto container =
      ckpt::read_container(path, kGridMagic, kVersion, "grid file");
  auto& in = container.payload;
  const auto depth = in.i64();
  const auto height = in.i64();
  const auto width = in.i64();
  SDMPEB_CHECK_MSG(depth > 0 && height > 0 && width > 0,
                   path << ": implausible grid dims " << depth << "x"
                        << height << "x" << width);
  in.expect_array({depth, height, width}, sizeof(double));
  Grid3 grid(depth, height, width);
  in.bytes(grid.data().data(),
           static_cast<std::size_t>(grid.numel()) * sizeof(double));
  in.expect_end();
  return grid;
}

}  // namespace sdmpeb::io

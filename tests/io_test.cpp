#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "io/pgm.hpp"
#include "io/volume_io.hpp"
#include "nn/layers.hpp"
#include "nn/serialize.hpp"

namespace sdmpeb::io {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sdmpeb_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, GridRoundTrip) {
  Grid3 grid(3, 4, 5);
  for (std::int64_t i = 0; i < grid.numel(); ++i)
    grid.data()[static_cast<std::size_t>(i)] = 0.25 * static_cast<double>(i);
  save_grid(grid, path("grid.bin"));
  const Grid3 loaded = load_grid(path("grid.bin"));
  ASSERT_TRUE(loaded.same_shape(grid));
  for (std::int64_t i = 0; i < grid.numel(); ++i)
    EXPECT_DOUBLE_EQ(loaded.data()[static_cast<std::size_t>(i)],
                     grid.data()[static_cast<std::size_t>(i)]);
}

TEST_F(IoTest, LoadRejectsWrongMagic) {
  {
    std::ofstream out(path("junk.bin"), std::ios::binary);
    out << "NOPE and some bytes";
  }
  EXPECT_THROW(load_grid(path("junk.bin")), Error);
}

TEST_F(IoTest, LoadRejectsTruncatedPayload) {
  Grid3 grid(2, 2, 2, 1.0);
  save_grid(grid, path("grid.bin"));
  // Truncate the file.
  std::filesystem::resize_file(path("grid.bin"), 20);
  EXPECT_THROW(load_grid(path("grid.bin")), Error);
}

TEST_F(IoTest, LoadMissingFileThrows) {
  EXPECT_THROW(load_grid(path("missing.bin")), Error);
}

TEST_F(IoTest, CrossLoadingGridAsParametersFails) {
  Grid3 grid(2, 2, 2, 1.0);
  save_grid(grid, path("grid.bin"));
  Rng rng(1);
  nn::Linear module(2, 2, rng);
  EXPECT_THROW(nn::load_parameters(module, path("grid.bin")), Error);
}

TEST_F(IoTest, PgmHeaderAndSize) {
  Tensor img(Shape{3, 5});
  img.at(1, 2) = 1.0f;
  save_pgm(img, path("img.pgm"), 0.0f, 1.0f);
  std::ifstream in(path("img.pgm"), std::ios::binary);
  std::string magic;
  int w, h, maxval;
  in >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 5);
  EXPECT_EQ(h, 3);
  EXPECT_EQ(maxval, 255);
  in.get();  // single whitespace after header
  std::vector<char> payload(15);
  in.read(payload.data(), 15);
  EXPECT_TRUE(in.good());
  EXPECT_EQ(static_cast<unsigned char>(payload[7]), 255);  // (1,2) bright
  EXPECT_EQ(static_cast<unsigned char>(payload[0]), 0);
}

TEST_F(IoTest, PgmClampsOutOfRangeValues) {
  Tensor img(Shape{1, 2});
  img.at(0, 0) = -5.0f;
  img.at(0, 1) = 99.0f;
  save_pgm(img, path("clamp.pgm"), 0.0f, 1.0f);
  std::ifstream in(path("clamp.pgm"), std::ios::binary);
  std::string line;
  std::getline(in, line);  // P5
  std::getline(in, line);  // dims
  std::getline(in, line);  // maxval
  char a, b;
  in.get(a);
  in.get(b);
  EXPECT_EQ(static_cast<unsigned char>(a), 0);
  EXPECT_EQ(static_cast<unsigned char>(b), 255);
}

TEST(Slices, DepthSliceExtractsPlane) {
  Grid3 g(2, 2, 3);
  g.at(1, 1, 2) = 7.0;
  const Tensor slice = depth_slice(g, 1);
  EXPECT_EQ(slice.shape(), Shape({2, 3}));
  EXPECT_FLOAT_EQ(slice.at(1, 2), 7.0f);
}

TEST(Slices, VerticalSliceExtractsDepthByWidth) {
  Grid3 g(3, 2, 4);
  g.at(2, 1, 3) = 5.0;
  const Tensor slice = vertical_slice(g, 1);
  EXPECT_EQ(slice.shape(), Shape({3, 4}));
  EXPECT_FLOAT_EQ(slice.at(2, 3), 5.0f);
}

}  // namespace
}  // namespace sdmpeb::io

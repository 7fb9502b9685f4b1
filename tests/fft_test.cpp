#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"

namespace sdmpeb::fft {
namespace {

TEST(Fft, IsPowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(-4));
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Complex> a(3, Complex(1.0, 0.0));
  EXPECT_THROW(fft(a, false), Error);
}

TEST(Fft, ImpulseTransformsToConstant) {
  std::vector<Complex> a(8, Complex(0.0, 0.0));
  a[0] = Complex(1.0, 0.0);
  fft(a, false);
  for (const auto& v : a) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantTransformsToImpulse) {
  std::vector<Complex> a(8, Complex(2.0, 0.0));
  fft(a, false);
  EXPECT_NEAR(a[0].real(), 16.0, 1e-12);
  for (std::size_t i = 1; i < a.size(); ++i)
    EXPECT_NEAR(std::abs(a[i]), 0.0, 1e-12);
}

TEST(Fft, RoundTripRecoversInput) {
  Rng rng(3);
  std::vector<Complex> a(64);
  for (auto& v : a) v = Complex(rng.normal(), rng.normal());
  const auto original = a;
  fft(a, false);
  fft(a, true);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].real(), original[i].real(), 1e-10);
    EXPECT_NEAR(a[i].imag(), original[i].imag(), 1e-10);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 32;
  const std::size_t k = 5;
  std::vector<Complex> a(n);
  for (std::size_t m = 0; m < n; ++m) {
    const double theta = 2.0 * M_PI * static_cast<double>(k * m) / n;
    a[m] = Complex(std::cos(theta), std::sin(theta));
  }
  fft(a, false);
  EXPECT_NEAR(a[k].real(), static_cast<double>(n), 1e-9);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == k) continue;
    EXPECT_NEAR(std::abs(a[i]), 0.0, 1e-9) << "bin " << i;
  }
}

TEST(Fft, LinearityHolds) {
  Rng rng(5);
  const std::size_t n = 16;
  std::vector<Complex> a(n), b(n), combo(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = Complex(rng.normal(), rng.normal());
    b[i] = Complex(rng.normal(), rng.normal());
    combo[i] = 2.0 * a[i] + 3.0 * b[i];
  }
  fft(a, false);
  fft(b, false);
  fft(combo, false);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(combo[i] - (2.0 * a[i] + 3.0 * b[i])), 0.0, 1e-9);
}

TEST(Fft, ParsevalEnergyConservation) {
  Rng rng(9);
  const std::size_t n = 64;
  std::vector<Complex> a(n);
  double time_energy = 0.0;
  for (auto& v : a) {
    v = Complex(rng.normal(), rng.normal());
    time_energy += std::norm(v);
  }
  fft(a, false);
  double freq_energy = 0.0;
  for (const auto& v : a) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n), 1e-7);
}

TEST(Fft3, RoundTrip) {
  Rng rng(13);
  const std::int64_t d = 4, h = 8, w = 8;
  std::vector<Complex> grid(static_cast<std::size_t>(d * h * w));
  for (auto& v : grid) v = Complex(rng.normal(), rng.normal());
  const auto original = grid;
  fft3(grid, d, h, w, false);
  fft3(grid, d, h, w, true);
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_NEAR(std::abs(grid[i] - original[i]), 0.0, 1e-10);
}

TEST(Fft3, ConstantVolumeConcentratesAtDc) {
  const std::int64_t d = 2, h = 4, w = 4;
  std::vector<Complex> grid(static_cast<std::size_t>(d * h * w),
                            Complex(1.0, 0.0));
  fft3(grid, d, h, w, false);
  EXPECT_NEAR(grid[0].real(), static_cast<double>(d * h * w), 1e-10);
  for (std::size_t i = 1; i < grid.size(); ++i)
    EXPECT_NEAR(std::abs(grid[i]), 0.0, 1e-10);
}

TEST(Fft3, SeparableToneLandsInExpectedBin) {
  const std::int64_t d = 4, h = 4, w = 8;
  const std::int64_t kd = 1, kh = 2, kw = 3;
  std::vector<Complex> grid(static_cast<std::size_t>(d * h * w));
  for (std::int64_t dd = 0; dd < d; ++dd)
    for (std::int64_t hh = 0; hh < h; ++hh)
      for (std::int64_t ww = 0; ww < w; ++ww) {
        const double theta =
            2.0 * M_PI *
            (static_cast<double>(kd * dd) / d + static_cast<double>(kh * hh) / h +
             static_cast<double>(kw * ww) / w);
        grid[static_cast<std::size_t>((dd * h + hh) * w + ww)] =
            Complex(std::cos(theta), std::sin(theta));
      }
  fft3(grid, d, h, w, false);
  const auto target = static_cast<std::size_t>((kd * h + kh) * w + kw);
  EXPECT_NEAR(grid[target].real(), static_cast<double>(d * h * w), 1e-8);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (i == target) continue;
    EXPECT_NEAR(std::abs(grid[i]), 0.0, 1e-8);
  }
}

class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, RoundTripAcrossSizes) {
  Rng rng(GetParam());
  std::vector<Complex> a(GetParam());
  for (auto& v : a) v = Complex(rng.normal(), rng.normal());
  const auto original = a;
  fft(a, false);
  fft(a, true);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(std::abs(a[i] - original[i]), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizeTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 128, 512));

}  // namespace
}  // namespace sdmpeb::fft

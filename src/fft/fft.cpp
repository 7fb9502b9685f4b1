#include "fft/fft.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace sdmpeb::fft {

bool is_power_of_two(std::int64_t n) { return n >= 1 && (n & (n - 1)) == 0; }

namespace {

/// Core transform on a scratch vector (contiguous). Normalisation of the
/// inverse is applied by the callers that own the data layout.
void fft_core(std::vector<Complex>& a, bool inverse) {
  const std::size_t n = a.size();
  if (n <= 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = a[i + k];
        const Complex v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

}  // namespace

void fft(std::vector<Complex>& a, bool inverse) {
  SDMPEB_CHECK_MSG(is_power_of_two(static_cast<std::int64_t>(a.size())),
                   "FFT size " << a.size() << " is not a power of two");
  fft_core(a, inverse);
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(a.size());
    for (auto& v : a) v *= scale;
  }
}

void fft_strided(Complex* base, std::int64_t count, std::int64_t stride,
                 bool inverse) {
  SDMPEB_CHECK(is_power_of_two(count));
  SDMPEB_CHECK(stride >= 1);
  std::vector<Complex> line(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) line[i] = base[i * stride];
  fft(line, inverse);
  for (std::int64_t i = 0; i < count; ++i) base[i * stride] = line[i];
}

void fft3(std::vector<Complex>& grid, std::int64_t depth, std::int64_t height,
          std::int64_t width, bool inverse) {
  SDMPEB_CHECK(static_cast<std::int64_t>(grid.size()) ==
               depth * height * width);
  // Each 1-D line transform touches a disjoint slice of the grid, so every
  // pencil pass is an independent batch (pure map — chunking never affects
  // the values).
  // Along W (contiguous lines).
  parallel::parallel_for(
      0, depth * height, 8, [&](std::int64_t l0, std::int64_t l1) {
        for (std::int64_t l = l0; l < l1; ++l)
          fft_strided(grid.data() + l * width, width, 1, inverse);
      });
  // Along H.
  parallel::parallel_for(
      0, depth * width, 8, [&](std::int64_t l0, std::int64_t l1) {
        for (std::int64_t l = l0; l < l1; ++l) {
          const auto d = l / width;
          const auto w = l % width;
          fft_strided(grid.data() + d * height * width + w, height, width,
                      inverse);
        }
      });
  // Along D.
  parallel::parallel_for(
      0, height * width, 8, [&](std::int64_t l0, std::int64_t l1) {
        for (std::int64_t l = l0; l < l1; ++l)
          fft_strided(grid.data() + l, depth, height * width, inverse);
      });
}

}  // namespace sdmpeb::fft

#pragma once

#include <complex>
#include <cstdint>
#include <vector>

namespace sdmpeb::fft {

using Complex = std::complex<double>;

/// True iff n is a power of two (n >= 1).
bool is_power_of_two(std::int64_t n);

/// In-place iterative radix-2 Cooley–Tukey FFT. Size must be a power of two.
/// The inverse transform includes the 1/N normalisation, so
/// ifft(fft(x)) == x.
void fft(std::vector<Complex>& a, bool inverse);

/// 1-D FFT along a strided line inside a larger buffer (used to build the
/// multi-dimensional transforms without copies at the call sites).
void fft_strided(Complex* base, std::int64_t count, std::int64_t stride,
                 bool inverse);

/// 3-D FFT over a dense row-major (D, H, W) complex grid; every dimension
/// must be a power of two. Applies 1-D transforms along W, then H, then D.
void fft3(std::vector<Complex>& grid, std::int64_t depth, std::int64_t height,
          std::int64_t width, bool inverse);

}  // namespace sdmpeb::fft

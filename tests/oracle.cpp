#include "oracle.hpp"

#include <algorithm>
#include <cmath>

namespace sdmpeb::oracle {

void gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
          std::int64_t lda, bool trans_a, const float* b, std::int64_t ldb,
          bool trans_b, float* c, std::int64_t ldc, float beta) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    if (beta == 0.0f)
      std::fill(crow, crow + n, 0.0f);
    else if (beta != 1.0f)
      for (std::int64_t j = 0; j < n; ++j) crow[j] *= beta;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      // No zero-skip: 0 * NaN must poison the output, not vanish.
      const float av = trans_a ? a[kk * lda + i] : a[i * lda + kk];
      for (std::int64_t j = 0; j < n; ++j)
        crow[j] += av * (trans_b ? b[j * ldb + kk] : b[kk * ldb + j]);
    }
  }
}

namespace {

/// One spatial axis of a convolution: input extent, kernel, stride, pad.
struct Axis {
  std::int64_t in, kernel, stride, pad;
};

std::int64_t out_dim(const Axis& a, bool transposed) {
  return transposed ? (a.in - 1) * a.stride - 2 * a.pad + a.kernel
                    : (a.in + 2 * a.pad - a.kernel) / a.stride + 1;
}

/// Input index that tap t of output index o reads, or -1 when there is
/// none. A convolution gathers in = o*stride - pad + t; a transposed one
/// scatters in to o = in*stride - pad + t.
std::int64_t source(const Axis& a, std::int64_t o, std::int64_t t,
                    bool transposed) {
  std::int64_t i = o * a.stride - a.pad + t;
  if (transposed) {
    const auto scaled = o + a.pad - t;
    if (scaled < 0 || scaled % a.stride != 0) return -1;
    i = scaled / a.stride;
  }
  return i >= 0 && i < a.in ? i : -1;
}

/// out[co][od][oh][ow] = bias[co] + sum over ci and taps of x * w, with the
/// weight block of (co, ci) at w + ((transposed ? ci*Cout + co : co*Cin +
/// ci) * taps).
Tensor direct_conv(const Tensor& x, const Tensor& w, const Tensor& bias,
                   std::int64_t cout, bool transposed,
                   const Axis (&axes)[3]) {
  const auto cin = x.dim(0);
  const auto [ad, ah, aw] = axes;
  const auto dout = out_dim(ad, transposed), hout = out_dim(ah, transposed),
             wout = out_dim(aw, transposed);
  const auto taps = ad.kernel * ah.kernel * aw.kernel;
  Tensor out(Shape{cout, dout, hout, wout});
  float* po = out.raw();
  for (std::int64_t co = 0; co < cout; ++co)
    for (std::int64_t od = 0; od < dout; ++od)
      for (std::int64_t oh = 0; oh < hout; ++oh)
        for (std::int64_t ow = 0; ow < wout; ++ow) {
          double acc = bias[co];
          for (std::int64_t ci = 0; ci < cin; ++ci) {
            const float* wk =
                w.raw() + (transposed ? ci * cout + co : co * cin + ci) * taps;
            for (std::int64_t a = 0; a < ad.kernel; ++a) {
              const auto id = source(ad, od, a, transposed);
              if (id < 0) continue;
              for (std::int64_t i = 0; i < ah.kernel; ++i) {
                const auto ih = source(ah, oh, i, transposed);
                if (ih < 0) continue;
                for (std::int64_t j = 0; j < aw.kernel; ++j) {
                  const auto iw = source(aw, ow, j, transposed);
                  if (iw < 0) continue;
                  acc += static_cast<double>(
                             x[((ci * ad.in + id) * ah.in + ih) * aw.in +
                               iw]) *
                         wk[(a * ah.kernel + i) * aw.kernel + j];
                }
              }
            }
          }
          po[((co * dout + od) * hout + oh) * wout + ow] =
              static_cast<float>(acc);
        }
  return out;
}

}  // namespace

Tensor conv2d_per_depth(const Tensor& x, const Tensor& w, const Tensor& bias,
                        std::int64_t stride, std::int64_t pad) {
  return direct_conv(x, w, bias, w.dim(0), false,
                     {{x.dim(1), 1, 1, 0},
                      {x.dim(2), w.dim(2), stride, pad},
                      {x.dim(3), w.dim(3), stride, pad}});
}

Tensor conv_transpose2d_per_depth(const Tensor& x, const Tensor& w,
                                  const Tensor& bias, std::int64_t stride,
                                  std::int64_t pad) {
  return direct_conv(x, w, bias, w.dim(1), true,
                     {{x.dim(1), 1, 1, 0},
                      {x.dim(2), w.dim(2), stride, pad},
                      {x.dim(3), w.dim(3), stride, pad}});
}

Tensor conv3d(const Tensor& x, const Tensor& w, const Tensor& bias,
              std::int64_t stride, std::int64_t pad) {
  return direct_conv(x, w, bias, w.dim(0), false,
                     {{x.dim(1), w.dim(2), stride, pad},
                      {x.dim(2), w.dim(3), stride, pad},
                      {x.dim(3), w.dim(4), stride, pad}});
}

void peb_reaction(std::span<double> acid, std::span<double> base,
                  std::span<double> inhibitor, double kr, double kc,
                  double dt) {
  for (std::size_t i = 0; i < acid.size(); ++i) {
    const double a0 = acid[i];
    const double b0 = base[i];
    inhibitor[i] *= std::exp(-kc * a0 * dt);
    const double u = a0 - b0;
    double a1;
    if (std::abs(u) < 1e-12) {
      a1 = a0 / (1.0 + kr * a0 * dt);
    } else {
      const double decay = std::exp(-kr * u * dt);
      a1 = u * a0 / (a0 - b0 * decay);
    }
    a1 = std::max(a1, 0.0);
    double b1 = std::max(a1 - u, 0.0);
    acid[i] = a1;
    base[i] = b1;
  }
}

}  // namespace sdmpeb::oracle

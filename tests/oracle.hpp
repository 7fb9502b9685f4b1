#pragma once

// Test-only reference implementations the production kernels are checked
// against: the plain three-loop GEMM behind common/gemm.hpp, one
// direct-loop convolution behind the im2col-lowered dense convs in
// nn/ops_conv.cpp, and the serial in-place PEB reaction loop behind
// simd::peb_reaction. They are slow on purpose — every output element is one
// visible accumulation chain — and live with the tests, not the library.

#include <cstdint>
#include <span>

#include "tensor/tensor.hpp"

namespace sdmpeb::oracle {

/// C = op(a) @ op(b) + beta * C with common/gemm.hpp's signature. Each
/// element accumulates along k in ascending order through one float chain,
/// compiled with -ffp-contract=off like gemm.cpp, so the scalar packed GEMM
/// must match it BITWISE (DESIGN.md §8).
void gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
          std::int64_t lda, bool trans_a, const float* b, std::int64_t ldb,
          bool trans_b, float* c, std::int64_t ldc, float beta = 0.0f);

/// Direct-loop convolutions in the layouts of the nn::ops they mirror,
/// accumulating in double (so agreement with the float GEMM lowering is a
/// relative tolerance, not bitwise). x is (Cin, D, H, W).
/// w is (Cout, Cin, kh, kw).
Tensor conv2d_per_depth(const Tensor& x, const Tensor& w, const Tensor& bias,
                        std::int64_t stride, std::int64_t pad);
/// w is (Cin, Cout, kh, kw).
Tensor conv_transpose2d_per_depth(const Tensor& x, const Tensor& w,
                                  const Tensor& bias, std::int64_t stride,
                                  std::int64_t pad);
/// w is (Cout, Cin, kd, kh, kw); stride and pad apply to all three axes.
Tensor conv3d(const Tensor& x, const Tensor& w, const Tensor& bias,
              std::int64_t stride, std::int64_t pad);

/// One PEB reaction sub-step of length dt, in place over every voxel: the
/// serial loop PebSolver ran before the reaction became a dispatched kernel,
/// kept verbatim, so the scalar simd::peb_reaction must match it BITWISE.
void peb_reaction(std::span<double> acid, std::span<double> base,
                  std::span<double> inhibitor, double kr, double kc,
                  double dt);

}  // namespace sdmpeb::oracle

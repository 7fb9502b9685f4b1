#pragma once

#include <cstdint>
#include <vector>

#include "nn/value.hpp"

namespace sdmpeb::nn::ops {

// ---------------------------------------------------------------------------
// Elementwise (shapes must match exactly; no implicit broadcasting — the
// call sites in this codebase are explicit about layout).
// ---------------------------------------------------------------------------
Value add(const Value& a, const Value& b);
Value sub(const Value& a, const Value& b);
Value mul(const Value& a, const Value& b);
Value add_scalar(const Value& a, float s);
Value mul_scalar(const Value& a, float s);

Value relu(const Value& x);
Value leaky_relu(const Value& x, float negative_slope = 0.01f);
Value silu(const Value& x);      ///< x * sigmoid(x), the SDM-unit activation [39]
Value sigmoid(const Value& x);
Value gelu(const Value& x);      ///< tanh approximation
Value softplus(const Value& x);  ///< log(1 + e^x), for the Mamba Δ (Eq. 11)
Value exp(const Value& x);
Value log(const Value& x);       ///< requires strictly positive input
Value square(const Value& x);
/// |x|^p with d/dx = p |x|^{p-1} sign(x) (0 at x = 0). Building block of the
/// PEB focal loss (Eq. 17).
Value abs_pow(const Value& x, float p);

// ---------------------------------------------------------------------------
// Reductions (to scalar).
// ---------------------------------------------------------------------------
Value sum(const Value& x);
Value mean(const Value& x);
/// Max over all elements; the subgradient flows to the first argmax — the
/// MaxSE loss of Eq. (16).
Value max_all(const Value& x);

// ---------------------------------------------------------------------------
// Linear algebra on (rows, cols) matrices.
// ---------------------------------------------------------------------------
/// a (M, K) @ b (K, N); trans_a / trans_b transpose the operand layout
/// before multiplication (a stored as (K, M) etc.).
Value matmul(const Value& a, const Value& b, bool trans_a = false,
             bool trans_b = false);
/// x (L, Cin) @ w (Cin, Cout) + bias (Cout); bias may be nullptr.
Value linear(const Value& x, const Value& w, const Value& bias);
/// Row-wise softmax of (R, C) with temperature: softmax(x / tau).
Value softmax_rows(const Value& x, float tau = 1.0f);
/// Row-wise log-softmax (numerically stable), used by the differential depth
/// divergence KL term (Eq. 21).
Value log_softmax_rows(const Value& x, float tau = 1.0f);
/// LayerNorm over the last axis of (L, C) with affine (gamma, beta).
Value layer_norm(const Value& x, const Value& gamma, const Value& beta,
                 float eps = 1e-5f);

// ---------------------------------------------------------------------------
// Shape / layout. Feature maps are (C, D, H, W); sequences are (L, C) with
// L = D·H·W in depth-major (d, h, w) order — the paper's depth-forward scan
// order.
// ---------------------------------------------------------------------------
Value reshape(const Value& x, Shape shape);
Value to_sequence(const Value& x);  ///< (C, D, H, W) -> (D·H·W, C)
Value to_feature(const Value& x, std::int64_t channels, std::int64_t depth,
                 std::int64_t height, std::int64_t width);
/// Rows [start, start + len) of an (L, C) sequence.
Value narrow_rows(const Value& x, std::int64_t start, std::int64_t len);
/// Columns [start, start + len) of an (L, C) sequence (head / gate splits).
Value narrow_cols(const Value& x, std::int64_t start, std::int64_t len);
Value concat_rows(const std::vector<Value>& parts);
/// Concat (L, C_i) sequences along the channel axis (multi-head re-merge).
Value concat_cols(const std::vector<Value>& parts);
/// Concat rank-4 feature maps along the channel axis.
Value concat_channels(const std::vector<Value>& parts);
/// Row permutation: out[i] = x[indices[i]]. Backward scatters. Used to
/// reorder sequences for the three selective-scan directions.
Value gather_rows(const Value& x, std::vector<std::int64_t> indices);

// ---------------------------------------------------------------------------
// Convolutions. "per_depth" ops apply a 2-D kernel independently at every
// depth level — the paper's depthwise overlapped patch embedding / merging,
// which downsamples laterally while RETAINING depth resolution (Fig. 3).
// ---------------------------------------------------------------------------
/// x (Cin, D, H, W), w (Cout, Cin, kh, kw), bias (Cout) or nullptr.
Value conv2d_per_depth(const Value& x, const Value& w, const Value& bias,
                       std::int64_t stride, std::int64_t pad);
/// Transposed conv per depth level; w (Cin, Cout, kh, kw).
/// H_out = (H - 1) * stride - 2 * pad + kh.
Value conv_transpose2d_per_depth(const Value& x, const Value& w,
                                 const Value& bias, std::int64_t stride,
                                 std::int64_t pad);
/// Full 3-D convolution; x (Cin, D, H, W), w (Cout, Cin, kd, kh, kw).
Value conv3d(const Value& x, const Value& w, const Value& bias,
             std::int64_t stride, std::int64_t pad);
/// Depthwise 3-D convolution (one kernel per channel), stride 1;
/// w (C, kd, kh, kw).
Value dwconv3d(const Value& x, const Value& w, const Value& bias,
               std::int64_t pad);
/// Depthwise 1-D convolution along the sequence axis of (L, C) with "same"
/// centred padding; w (C, k). The Conv1D in the SDM unit (Fig. 5a).
Value dwconv1d_seq(const Value& x, const Value& w, const Value& bias);
/// Nearest-neighbour lateral upsampling per depth level (feature fusion).
Value upsample_nearest_per_depth(const Value& x, std::int64_t factor);

// ---------------------------------------------------------------------------
// Selective scan (the SSM core of the SDM unit, Eqs. 7–9 discretised with
// ZOH). Per channel c and state n:
//   a_t   = exp(delta[t,c] * A[c,n])            with A = -exp(a_log)
//   h_t   = a_t * h_{t-1} + delta[t,c] * B[t,n] * x[t,c]
//   y_t,c = sum_n C[t,n] * h_t[c,n] + d_skip[c] * x[t,c]
// Implemented as one fused op with a hand-written backward (reverse-time
// adjoint recurrence) — see DESIGN.md §4.
// ---------------------------------------------------------------------------
Value selective_scan(const Value& x, const Value& delta, const Value& a_log,
                     const Value& b, const Value& c, const Value& d_skip);
/// The same scan with Eq. 11 fused in: delta[t,c] = softplus(delta_col[t] +
/// delta_bias[c]) for the (L, 1) Linear_1 output and the (1, C) bias D.
/// Equal, bit for bit on the scalar backend, to the unfused graph that
/// broadcasts both with K = 1 matmuls, adds and applies softplus.
Value selective_scan(const Value& x, const Value& delta_col,
                     const Value& delta_bias, const Value& a_log,
                     const Value& b, const Value& c, const Value& d_skip);

// ---------------------------------------------------------------------------
// Spectral convolution (Fourier Neural Operator layer [19]) for the FNO and
// DeePEB baselines: per out-channel, mixes in-channels mode-by-mode on the
// low-frequency box [0, md) x [0, mh) x [0, mw) of the 3-D FFT, then takes
// the real part of the inverse transform. All spatial dims must be powers
// of two. w_* have shape (Cout, Cin, md, mh, mw).
// ---------------------------------------------------------------------------
Value spectral_conv3d(const Value& x, const Value& w_real,
                      const Value& w_imag, std::int64_t modes_d,
                      std::int64_t modes_h, std::int64_t modes_w);

}  // namespace sdmpeb::nn::ops

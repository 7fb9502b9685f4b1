// Backend resolution and the scalar reference kernels. The scalar bodies
// here reproduce, op for op, the loops they replaced in nn/ and peb/ — they
// are the portable bitwise baseline every vector backend is validated
// against. Keep them boring.

#include "common/simd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/obs.hpp"

namespace sdmpeb::simd {

namespace {

void publish_backend_gauge(Isa isa) {
  obs::gauge("kernel.backend").set(static_cast<double>(isa));
}

Isa resolve_from_env() {
  Isa chosen = cpu_has_avx2() ? Isa::kAvx2 : Isa::kScalar;
  if (const char* env = std::getenv("SDMPEB_BACKEND"); env && *env != '\0') {
    if (std::strcmp(env, "scalar") == 0) {
      chosen = Isa::kScalar;
    } else if (std::strcmp(env, "avx2") == 0) {
      if (cpu_has_avx2()) {
        chosen = Isa::kAvx2;
      } else {
        SDMPEB_LOG(obs::LogLevel::kWarn)
            << "SDMPEB_BACKEND=avx2 requested but this CPU lacks AVX2+FMA; "
               "falling back to the scalar backend";
        chosen = Isa::kScalar;
      }
    } else {
      SDMPEB_LOG(obs::LogLevel::kWarn)
          << "unknown SDMPEB_BACKEND '" << env
          << "' (expected scalar|avx2); using " << isa_name(chosen);
    }
  }
  publish_backend_gauge(chosen);
  return chosen;
}

Isa& isa_slot() {
  static Isa isa = resolve_from_env();
  return isa;
}

}  // namespace

bool cpu_has_avx2() {
#if SDMPEB_SIMD_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

Isa active() { return isa_slot(); }

void set_active(Isa isa) {
  if (isa == Isa::kAvx2 && !cpu_has_avx2()) isa = Isa::kScalar;
  isa_slot() = isa;
  publish_backend_gauge(isa);
}

const char* isa_name(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

const char* cpu_feature_string() {
#if SDMPEB_SIMD_X86
  static const std::string features = [] {
    std::string out;
    const auto append = [&out](const char* name) {
      if (!out.empty()) out += '+';
      out += name;
    };
    if (__builtin_cpu_supports("sse4.2")) append("sse4.2");
    if (__builtin_cpu_supports("avx")) append("avx");
    if (__builtin_cpu_supports("avx2")) append("avx2");
    if (__builtin_cpu_supports("fma")) append("fma");
    if (__builtin_cpu_supports("avx512f")) append("avx512f");
    if (out.empty()) out = "x86-64";
    return out;
  }();
  return features.c_str();
#else
  return "generic";
#endif
}

GemmTileFn gemm_tile_16() {
#if SDMPEB_SIMD_X86
  if (active() == Isa::kAvx2) return &avx2::gemm_tile_6x16;
#endif
  return nullptr;
}

TridiagLinesFn tridiag_lines(int lanes) {
#if SDMPEB_SIMD_X86
  if (active() == Isa::kAvx2) {
    if (lanes == 8) return &avx2::tridiag_lines<2>;
    if (lanes == 4) return &avx2::tridiag_lines<1>;
  }
#else
  (void)lanes;
#endif
  return nullptr;
}

// --------------------------- elementwise ----------------------------------

#if SDMPEB_SIMD_X86
#define SDMPEB_SIMD_DISPATCH(call) \
  if (active() == Isa::kAvx2) {    \
    avx2::call;                    \
    return;                        \
  }
#else
#define SDMPEB_SIMD_DISPATCH(call)
#endif

void vadd(float* dst, const float* src, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vadd(dst, src, n))
  for (std::int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

void vsub(float* dst, const float* src, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vsub(dst, src, n))
  for (std::int64_t i = 0; i < n; ++i) dst[i] -= src[i];
}

void vmul(float* dst, const float* src, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vmul(dst, src, n))
  for (std::int64_t i = 0; i < n; ++i) dst[i] *= src[i];
}

void vscale(float* dst, float s, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vscale(dst, s, n))
  for (std::int64_t i = 0; i < n; ++i) dst[i] *= s;
}

void vaxpy(float* dst, const float* src, float s, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vaxpy(dst, src, s, n))
  for (std::int64_t i = 0; i < n; ++i) dst[i] += src[i] * s;
}

void vmul_add(float* dst, const float* a, const float* b, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vmul_add(dst, a, b, n))
  for (std::int64_t i = 0; i < n; ++i) dst[i] += a[i] * b[i];
}

void vrelu(float* dst, const float* src, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vrelu(dst, src, n))
  for (std::int64_t i = 0; i < n; ++i)
    dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
}

void vrelu_bwd(float* dst, const float* g, const float* in, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vrelu_bwd(dst, g, in, n))
  for (std::int64_t i = 0; i < n; ++i)
    dst[i] += g[i] * (in[i] > 0.0f ? 1.0f : 0.0f);
}

void vleaky_relu(float* dst, const float* src, float slope, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vleaky_relu(dst, src, slope, n))
  for (std::int64_t i = 0; i < n; ++i)
    dst[i] = src[i] > 0.0f ? src[i] : slope * src[i];
}

void vleaky_relu_bwd(float* dst, const float* g, const float* in, float slope,
                     std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(vleaky_relu_bwd(dst, g, in, slope, n))
  for (std::int64_t i = 0; i < n; ++i)
    dst[i] += g[i] * (in[i] > 0.0f ? 1.0f : slope);
}

// ---------------------------- layer norm -----------------------------------

void layer_norm_stats(const float* row, std::int64_t n, float eps,
                      float* mean_out, float* inv_sigma_out) {
  SDMPEB_SIMD_DISPATCH(layer_norm_stats(row, n, eps, mean_out, inv_sigma_out))
  double mean = 0.0;
  for (std::int64_t i = 0; i < n; ++i) mean += row[i];
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double d = row[i] - mean;
    var += d * d;
  }
  var /= static_cast<double>(n);
  *mean_out = static_cast<float>(mean);
  *inv_sigma_out =
      static_cast<float>(1.0 / std::sqrt(var + static_cast<double>(eps)));
}

void layer_norm_apply(float* out_row, float* xhat_row, const float* row,
                      const float* gamma, const float* beta, float mean,
                      float inv_sigma, std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(layer_norm_apply(out_row, xhat_row, row, gamma, beta,
                                        mean, inv_sigma, n))
  for (std::int64_t i = 0; i < n; ++i) {
    const float xh = (row[i] - mean) * inv_sigma;
    xhat_row[i] = xh;
    out_row[i] = xh * gamma[i] + beta[i];
  }
}

void layer_norm_bwd_sums(const float* g_row, const float* xhat_row,
                         const float* gamma, std::int64_t n, double* sum_gy,
                         double* sum_gy_xhat) {
  SDMPEB_SIMD_DISPATCH(
      layer_norm_bwd_sums(g_row, xhat_row, gamma, n, sum_gy, sum_gy_xhat))
  double s0 = 0.0;
  double s1 = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double gy = static_cast<double>(g_row[i]) * gamma[i];
    s0 += gy;
    s1 += gy * xhat_row[i];
  }
  *sum_gy = s0;
  *sum_gy_xhat = s1;
}

void layer_norm_bwd_apply(float* gx_row, const float* g_row,
                          const float* xhat_row, const float* gamma,
                          float inv_sigma, double mean_gy, double mean_gy_xhat,
                          std::int64_t n) {
  SDMPEB_SIMD_DISPATCH(layer_norm_bwd_apply(gx_row, g_row, xhat_row, gamma,
                                            inv_sigma, mean_gy, mean_gy_xhat,
                                            n))
  for (std::int64_t i = 0; i < n; ++i) {
    const double gy = static_cast<double>(g_row[i]) * gamma[i];
    gx_row[i] += static_cast<float>(
        inv_sigma * (gy - mean_gy - xhat_row[i] * mean_gy_xhat));
  }
}

// --------------------------- depthwise conv --------------------------------

void dwconv3d_interior_row(float* orow, std::int64_t ow_lo, std::int64_t ow_hi,
                           float bias, const float* xch, const float* wch,
                           std::int64_t od, std::int64_t oh, std::int64_t pad,
                           std::int64_t a_lo, std::int64_t a_hi,
                           std::int64_t i_lo, std::int64_t i_hi,
                           std::int64_t kh, std::int64_t kw, std::int64_t hin,
                           std::int64_t win) {
  SDMPEB_SIMD_DISPATCH(dwconv3d_interior_row(orow, ow_lo, ow_hi, bias, xch,
                                             wch, od, oh, pad, a_lo, a_hi,
                                             i_lo, i_hi, kh, kw, hin, win))
  for (std::int64_t ow = ow_lo; ow < ow_hi; ++ow) {
    double acc = bias;
    for (std::int64_t a = a_lo; a < a_hi; ++a)
      for (std::int64_t i = i_lo; i < i_hi; ++i) {
        const float* xrow =
            xch + ((od - pad + a) * hin + oh - pad + i) * win + ow - pad;
        const float* wrow = wch + (a * kh + i) * kw;
        for (std::int64_t j = 0; j < kw; ++j)
          acc += static_cast<double>(xrow[j]) * wrow[j];
      }
    orow[ow] = static_cast<float>(acc);
  }
}

void dwconv1d_interior_row(float* orow, const float* x, const float* w,
                           const float* wt, const float* pb, std::int64_t cols,
                           std::int64_t kernel) {
#if SDMPEB_SIMD_X86
  if (wt != nullptr && active() == Isa::kAvx2) {
    avx2::dwconv1d_interior_row(orow, x, wt, pb, cols, kernel);
    return;
  }
#else
  (void)wt;
#endif
  for (std::int64_t c = 0; c < cols; ++c) {
    double acc = pb ? pb[c] : 0.0f;
    const float* wrow = w + c * kernel;
    for (std::int64_t k = 0; k < kernel; ++k)
      acc += static_cast<double>(x[k * cols + c]) * wrow[k];
    orow[c] = static_cast<float>(acc);
  }
}

// ----------------------------- PEB reaction --------------------------------

bool peb_reaction(const PebReaction& r, std::int64_t i0, std::int64_t i1) {
#if SDMPEB_SIMD_X86
  if (active() == Isa::kAvx2) return avx2::peb_reaction(r, i0, i1);
#endif
  const double kr = r.kr;
  const double kc = r.kc;
  const double dt = r.dt;
  bool ok = true;
  for (std::int64_t i = i0; i < i1; ++i) {
    const double a0 = r.acid_in[i];
    const double b0 = r.base_in[i];

    // Catalytic deprotection, Eq. (1): for frozen [A] over the sub-step the
    // exact solution is I(t) = I0 * exp(-kc * A * t). Freezing [A] at its
    // pre-neutralisation value a0 makes this update first order in dt
    // (measured order 1.02-1.12 against RK4); the Strang wrapper does not
    // lift it to second order. ROADMAP.md item 2 replaces it with the exact
    // reaction flow.
    const double inh1 = r.inhibitor_in[i] * std::exp(-kc * a0 * dt);

    // Acid–base neutralisation: dA/dt = dB/dt = -kr * A * B, so u = A - B
    // is invariant and A(t) = u * A0 / (A0 - B0 * exp(-kr * u * t)); the
    // symmetric limit u -> 0 gives A(t) = A0 / (1 + kr * A0 * t).
    const double u = a0 - b0;
    double a1;
    if (std::abs(u) < 1e-12) {
      a1 = a0 / (1.0 + kr * a0 * dt);
    } else {
      const double decay = std::exp(-kr * u * dt);
      a1 = u * a0 / (a0 - b0 * decay);
    }
    // Guard against rounding pushing concentrations slightly negative.
    a1 = std::max(a1, 0.0);
    const double b1 = std::max(a1 - u, 0.0);
    r.inhibitor_out[i] = inh1;
    r.acid_out[i] = a1;
    r.base_out[i] = b1;
    // One compare per value catches NaN (comparisons with NaN are false)
    // and +/-Inf alongside genuine runaway magnitudes.
    if (r.check && !(std::abs(a1) <= r.limit && std::abs(b1) <= r.limit &&
                     std::abs(inh1) <= r.limit))
      ok = false;
  }
  return ok;
}

// --------------------------- selective scan --------------------------------

float softplus(float v) {
  // Overflow-safe: softplus(v) = max(v, 0) + log1p(exp(-|v|)).
  return std::max(v, 0.0f) + std::log1p(std::exp(-std::abs(v)));
}

namespace {

float delta_at(const ScanArgs& s, std::int64_t t, std::int64_t ch) {
  return s.delta ? s.delta[t * s.channels + ch]
                 : softplus(s.delta_col[t] + s.delta_bias[ch]);
}

}  // namespace

void scan_forward(const ScanArgs& s, std::int64_t c0, std::int64_t c1,
                  float* state, float* out, float* hidden) {
#if SDMPEB_SIMD_X86
  if (s.states == 8 && active() == Isa::kAvx2) {
    avx2::scan_forward8(s, c0, c1, state, out, hidden);
    return;
  }
#endif
  const auto channels = s.channels;
  const auto states = s.states;
  std::fill(state, state + (c1 - c0) * states, 0.0f);
  for (std::int64_t t = 0; t < s.seq_len; ++t) {
    const float* brow = s.b + t * states;
    const float* crow = s.c + t * states;
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      const float dt = delta_at(s, t, ch);
      const float xt = s.x[t * channels + ch];
      const float* arow = s.a_neg + ch * states;
      float* h = state + (ch - c0) * states;
      double y_acc = static_cast<double>(s.d_skip[ch]) * xt;
      for (std::int64_t n = 0; n < states; ++n) {
        const float a_bar = std::exp(dt * arow[n]);
        h[n] = a_bar * h[n] + dt * brow[n] * xt;
        y_acc += static_cast<double>(crow[n]) * h[n];
      }
      if (hidden)
        std::copy(h, h + states, hidden + (t * channels + ch) * states);
      out[t * channels + ch] = static_cast<float>(y_acc);
    }
  }
}

void scan_adjoint(const ScanArgs& s, std::int64_t c0, std::int64_t c1,
                  const float* hidden, const float* g, float* dh,
                  const ScanGrads& grads) {
#if SDMPEB_SIMD_X86
  if (s.states == 8 && active() == Isa::kAvx2) {
    avx2::scan_adjoint8(s, c0, c1, hidden, g, dh, grads);
    return;
  }
#endif
  const auto channels = s.channels;
  const auto states = s.states;
  std::fill(dh, dh + (c1 - c0) * states, 0.0f);
  for (std::int64_t t = s.seq_len - 1; t >= 0; --t) {
    const float* brow = s.b + t * states;
    const float* crow = s.c + t * states;
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      const float dy = g[t * channels + ch];
      const float dt = delta_at(s, t, ch);
      const float xt = s.x[t * channels + ch];
      if (grads.d_skip) grads.d_skip[ch] += dy * xt;
      const float* arow = s.a_neg + ch * states;
      const float* hprev =
          t > 0 ? hidden + ((t - 1) * channels + ch) * states : nullptr;
      float* dhrow = dh + (ch - c0) * states;
      float* bterm =
          grads.b_terms ? grads.b_terms + (t * channels + ch) * states
                        : nullptr;
      double dx_acc = static_cast<double>(s.d_skip[ch]) * dy;
      double ddelta_acc = 0.0;
      for (std::int64_t n = 0; n < states; ++n) {
        const float dh_cn = dhrow[n] + crow[n] * dy;
        const float a_cn = arow[n];
        const float a_bar = std::exp(dt * a_cn);
        const float h_prev = hprev ? hprev[n] : 0.0f;

        // h_t = a_bar * h_prev + dt * B_t[n] * x_t.
        const float da_bar = dh_cn * h_prev;
        ddelta_acc += static_cast<double>(da_bar) * a_cn * a_bar;
        ddelta_acc += static_cast<double>(dh_cn) * brow[n] * xt;
        dx_acc += static_cast<double>(dh_cn) * dt * brow[n];
        if (bterm) bterm[n] = dh_cn * dt * xt;
        // dA += da_bar * dt * a_bar; a_log grad = dA * dA/da_log with
        // A = -exp(a_log) => dA/da_log = A.
        if (grads.a_log)
          grads.a_log[ch * states + n] += da_bar * dt * a_bar * a_cn;
        // Pass the adjoint to h_{t-1}.
        dhrow[n] = dh_cn * a_bar;
      }
      if (grads.x) grads.x[t * channels + ch] += static_cast<float>(dx_acc);
      if (grads.delta)
        grads.delta[t * channels + ch] += static_cast<float>(ddelta_acc);
    }
  }
}

#undef SDMPEB_SIMD_DISPATCH

}  // namespace sdmpeb::simd

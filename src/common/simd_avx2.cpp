// AVX2+FMA kernel bodies — the only translation unit compiled with
// -mavx2 -mfma (plus -ffp-contract=off so the compiler cannot fuse the
// *scalar* tails here; the vector FMAs below are explicit intrinsics and
// unaffected). Nothing outside sdmpeb::simd may call these directly: the
// dispatchers in simd.cpp/gemm.cpp/tridiag.cpp gate every call on a runtime
// CPUID check, so no AVX2 instruction executes on a host without the ISA.

#include <immintrin.h>

#include <cmath>
#include <cstdint>

#include "common/simd.hpp"

#if !SDMPEB_SIMD_X86
#error "simd_avx2.cpp must only be built for x86-64 targets"
#endif

namespace sdmpeb::simd::avx2 {

namespace {

/// Lane mask with the low `valid` (0..8) float lanes enabled — drives
/// maskload/maskstore on partial GEMM tiles so edge tiles never touch
/// memory past the valid C region.
inline __m256i tail_mask(std::int64_t valid) {
  alignas(32) static constexpr std::int32_t kMaskTable[16] = {
      -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + 8 - valid));
}

inline std::int64_t clamp_lanes(std::int64_t v) {
  return v < 0 ? 0 : (v > 8 ? 8 : v);
}

/// Fixed-order horizontal sum: ((l0 + l1) + l2) + l3. Part of the AVX2
/// backend's determinism contract — never replace with a tree reduction
/// without bumping the contract in DESIGN.md §11.
inline double hsum_ordered(__m256d v) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

/// Fixed-order horizontal sum of 8 float lanes: (lo + hi) halves, then
/// pairs, then the last two.
inline float hsum8(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_movehdup_ps(s));
  return _mm_cvtss_f32(s);
}

/// 8-lane e^x: Cody-Waite reduction x = k ln2 + r, |r| <= ln2/2, and the
/// Cephes degree-6 polynomial for e^r, scaled by 2^k through the exponent
/// bits. Within 2 ulp of std::exp on [-87.3, 88]; inputs outside clamp
/// to those ends (e^-87.3 is the smallest normal float, not 0). The clamps
/// keep NaN (max/min return their second operand on unordered input).
inline __m256 exp8(__m256 x) {
  x = _mm256_min_ps(_mm256_set1_ps(88.0f), x);
  x = _mm256_max_ps(_mm256_set1_ps(-87.33654f), x);
  const __m256 k = _mm256_round_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(1.44269504088896341f)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(k, _mm256_set1_ps(0.693359375f), x);
  r = _mm256_fnmadd_ps(k, _mm256_set1_ps(-2.12194440e-4f), r);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
  p = _mm256_fmadd_ps(p, _mm256_mul_ps(r, r),
                      _mm256_add_ps(r, _mm256_set1_ps(1.0f)));
  const __m256i scale = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(k), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(scale));
}

/// 4-lane double e^x, within about 1 ulp of std::exp: Cody-Waite reduction
/// x = k ln2 + r with the split ln2 (exact k * ln2_hi under FMA), |r| <=
/// ln2/2, the degree-13 Taylor polynomial of e^r (truncation below 1e-17
/// relative) by FMA Horner, and 2^k applied as two exponent-bit factors so
/// the whole double range is covered: inputs above 709.8 overflow to +Inf,
/// inputs below -745.2 underflow to 0, like std::exp. The clamps keep NaN
/// (min/max return their second operand on unordered input).
inline __m256d exp4d(__m256d x) {
  x = _mm256_min_pd(_mm256_set1_pd(710.0), x);
  x = _mm256_max_pd(_mm256_set1_pd(-746.0), x);
  const __m256d k = _mm256_round_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(1.4426950408889634)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  __m256d r = _mm256_fnmadd_pd(k, _mm256_set1_pd(kLn2Hi), x);
  r = _mm256_fnmadd_pd(k, _mm256_set1_pd(kLn2Lo), r);
  __m256d p = _mm256_set1_pd(1.0 / 6227020800.0);  // 1/13!
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 479001600.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 39916800.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 3628800.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 362880.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 40320.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 5040.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 720.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 120.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 24.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 6.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(0.5));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));
  // k is integral and within [-1076, 1024]: split it so each half's
  // biased exponent stays in the normal range.
  const __m128i ki = _mm256_cvtpd_epi32(k);
  const __m128i k_lo = _mm_srai_epi32(ki, 1);
  const auto pow2 = [](__m128i e) {
    return _mm256_castsi256_pd(_mm256_slli_epi64(
        _mm256_add_epi64(_mm256_cvtepi32_epi64(e), _mm256_set1_epi64x(1023)),
        52));
  };
  return _mm256_mul_pd(_mm256_mul_pd(p, pow2(k_lo)),
                       pow2(_mm_sub_epi32(ki, k_lo)));
}

/// Δ[t, ch] of the scan (ScanArgs). softplus stays the out-of-line scalar
/// map, so both backends see the same step sizes.
inline float delta_at(const ScanArgs& s, std::int64_t t, std::int64_t ch) {
  return s.delta ? s.delta[t * s.channels + ch]
                 : softplus(s.delta_col[t] + s.delta_bias[ch]);
}

}  // namespace

// ------------------------------ GEMM tile ----------------------------------

void gemm_tile_6x16(std::int64_t kb, const float* ap, const float* bp,
                    float* c, std::int64_t ldc, std::int64_t rows,
                    std::int64_t cols, float beta, bool first_panel) {
  constexpr std::int64_t kMr = 6;
  __m256 acc[kMr][2];
  const bool full = rows == kMr && cols == kNrAvx2;
  const __m256i m0 = full ? _mm256_set1_epi32(-1) : tail_mask(clamp_lanes(cols));
  const __m256i m1 =
      full ? _mm256_set1_epi32(-1) : tail_mask(clamp_lanes(cols - 8));
  if (first_panel && beta == 0.0f) {
    for (std::int64_t i = 0; i < kMr; ++i) {
      acc[i][0] = _mm256_setzero_ps();
      acc[i][1] = _mm256_setzero_ps();
    }
  } else {
    // Seed from (beta-scaled on the first panel) C, zero outside the valid
    // rows x cols corner — identical chain shape to the scalar tile.
    const __m256 scale = _mm256_set1_ps(first_panel ? beta : 1.0f);
    for (std::int64_t i = 0; i < kMr; ++i) {
      if (i < rows) {
        const float* crow = c + i * ldc;
        if (full) {
          acc[i][0] = _mm256_mul_ps(_mm256_loadu_ps(crow), scale);
          acc[i][1] = _mm256_mul_ps(_mm256_loadu_ps(crow + 8), scale);
        } else {
          acc[i][0] = _mm256_mul_ps(_mm256_maskload_ps(crow, m0), scale);
          acc[i][1] = _mm256_mul_ps(_mm256_maskload_ps(crow + 8, m1), scale);
        }
      } else {
        acc[i][0] = _mm256_setzero_ps();
        acc[i][1] = _mm256_setzero_ps();
      }
    }
  }

  // 12 ymm accumulators, broadcast-A FMA, k strictly ascending: one fused
  // rounding per k step per element, the AVX2 backend's fixed chain.
  for (std::int64_t kk = 0; kk < kb; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kNrAvx2);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * kNrAvx2 + 8);
    const float* arow = ap + kk * kMr;
    for (std::int64_t i = 0; i < kMr; ++i) {
      const __m256 av = _mm256_set1_ps(arow[i]);
      acc[i][0] = _mm256_fmadd_ps(av, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(av, b1, acc[i][1]);
    }
  }

  if (full) {
    for (std::int64_t i = 0; i < kMr; ++i) {
      _mm256_storeu_ps(c + i * ldc, acc[i][0]);
      _mm256_storeu_ps(c + i * ldc + 8, acc[i][1]);
    }
  } else {
    for (std::int64_t i = 0; i < rows; ++i) {
      _mm256_maskstore_ps(c + i * ldc, m0, acc[i][0]);
      _mm256_maskstore_ps(c + i * ldc + 8, m1, acc[i][1]);
    }
  }
}

// ------------------------------ elementwise --------------------------------
// These must stay bitwise identical to the scalar backend: same IEEE op per
// element, no FMA (add/mul/sub/max are correctly rounded, so lane width is
// irrelevant to the result).

void vadd(float* dst, const float* src, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(src + i)));
  for (; i < n; ++i) dst[i] += src[i];
}

void vsub(float* dst, const float* src, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(dst + i, _mm256_sub_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(src + i)));
  for (; i < n; ++i) dst[i] -= src[i];
}

void vmul(float* dst, const float* src, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(src + i)));
  for (; i < n; ++i) dst[i] *= src[i];
}

void vscale(float* dst, float s, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i), vs));
  for (; i < n; ++i) dst[i] *= s;
}

void vaxpy(float* dst, const float* src, float s, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  // mul then add (not fmadd): keeps the two-rounding scalar semantics.
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(
        dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                               _mm256_mul_ps(_mm256_loadu_ps(src + i), vs)));
  for (; i < n; ++i) dst[i] += src[i] * s;
}

void vmul_add(float* dst, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(dst + i,
                     _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                   _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                                 _mm256_loadu_ps(b + i))));
  for (; i < n; ++i) dst[i] += a[i] * b[i];
}

void vrelu(float* dst, const float* src, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  // max_ps(x, 0): returns 0 for x = NaN or -0.0, exactly like the scalar
  // (x > 0 ? x : 0) select.
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(dst + i, _mm256_max_ps(_mm256_loadu_ps(src + i), zero));
  for (; i < n; ++i) dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
}

void vrelu_bwd(float* dst, const float* g, const float* in, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(in + i), zero,
                                      _CMP_GT_OQ);
    const __m256 factor = _mm256_and_ps(one, mask);  // in > 0 ? 1.0f : 0.0f
    _mm256_storeu_ps(
        dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                               _mm256_mul_ps(_mm256_loadu_ps(g + i), factor)));
  }
  for (; i < n; ++i) dst[i] += g[i] * (in[i] > 0.0f ? 1.0f : 0.0f);
}

void vleaky_relu(float* dst, const float* src, float slope, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 vs = _mm256_set1_ps(slope);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(src + i);
    const __m256 mask = _mm256_cmp_ps(x, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(dst + i,
                     _mm256_blendv_ps(_mm256_mul_ps(x, vs), x, mask));
  }
  for (; i < n; ++i) dst[i] = src[i] > 0.0f ? src[i] : slope * src[i];
}

void vleaky_relu_bwd(float* dst, const float* g, const float* in, float slope,
                     std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 vs = _mm256_set1_ps(slope);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(in + i), zero,
                                      _CMP_GT_OQ);
    const __m256 factor = _mm256_blendv_ps(vs, one, mask);
    _mm256_storeu_ps(
        dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                               _mm256_mul_ps(_mm256_loadu_ps(g + i), factor)));
  }
  for (; i < n; ++i) dst[i] += g[i] * (in[i] > 0.0f ? 1.0f : slope);
}

// ------------------------------ layer norm ---------------------------------
// Double accumulation in 4 lanes, folded in a fixed order, scalar tail last:
// deterministic within this backend, tolerance against the scalar backend's
// single ascending chain.

void layer_norm_stats(const float* row, std::int64_t n, float eps,
                      float* mean_out, float* inv_sigma_out) {
  __m256d s0 = _mm256_setzero_pd();
  __m256d s1 = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(row + i);
    s0 = _mm256_add_pd(s0, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    s1 = _mm256_add_pd(s1, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  double sum = hsum_ordered(_mm256_add_pd(s0, s1));
  for (; i < n; ++i) sum += row[i];
  const double mean = sum / static_cast<double>(n);

  const __m256d vm = _mm256_set1_pd(mean);
  __m256d v0 = _mm256_setzero_pd();
  __m256d v1 = _mm256_setzero_pd();
  i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(row + i);
    const __m256d d0 =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(v)), vm);
    const __m256d d1 =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)), vm);
    v0 = _mm256_fmadd_pd(d0, d0, v0);
    v1 = _mm256_fmadd_pd(d1, d1, v1);
  }
  double var = hsum_ordered(_mm256_add_pd(v0, v1));
  for (; i < n; ++i) {
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
  const __m256 vm = _mm256_set1_ps(mean);
  const __m256 vi = _mm256_set1_ps(inv_sigma);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xh =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(row + i), vm), vi);
    _mm256_storeu_ps(xhat_row + i, xh);
    _mm256_storeu_ps(out_row + i,
                     _mm256_fmadd_ps(xh, _mm256_loadu_ps(gamma + i),
                                     _mm256_loadu_ps(beta + i)));
  }
  for (; i < n; ++i) {
    const float xh = (row[i] - mean) * inv_sigma;
    xhat_row[i] = xh;
    out_row[i] = std::fmaf(xh, gamma[i], beta[i]);
  }
}

void layer_norm_bwd_sums(const float* g_row, const float* xhat_row,
                         const float* gamma, std::int64_t n, double* sum_gy,
                         double* sum_gy_xhat) {
  __m256d s0 = _mm256_setzero_pd();
  __m256d s1 = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d gd = _mm256_cvtps_pd(_mm_loadu_ps(g_row + i));
    const __m256d gad = _mm256_cvtps_pd(_mm_loadu_ps(gamma + i));
    const __m256d gy = _mm256_mul_pd(gd, gad);
    s0 = _mm256_add_pd(s0, gy);
    s1 = _mm256_fmadd_pd(gy, _mm256_cvtps_pd(_mm_loadu_ps(xhat_row + i)), s1);
  }
  double r0 = hsum_ordered(s0);
  double r1 = hsum_ordered(s1);
  for (; i < n; ++i) {
    const double gy = static_cast<double>(g_row[i]) * gamma[i];
    r0 += gy;
    r1 += gy * xhat_row[i];
  }
  *sum_gy = r0;
  *sum_gy_xhat = r1;
}

void layer_norm_bwd_apply(float* gx_row, const float* g_row,
                          const float* xhat_row, const float* gamma,
                          float inv_sigma, double mean_gy, double mean_gy_xhat,
                          std::int64_t n) {
  const __m256d vinv = _mm256_set1_pd(static_cast<double>(inv_sigma));
  const __m256d vmg = _mm256_set1_pd(mean_gy);
  const __m256d vmgx = _mm256_set1_pd(mean_gy_xhat);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d gy =
        _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(g_row + i)),
                      _mm256_cvtps_pd(_mm_loadu_ps(gamma + i)));
    const __m256d xh = _mm256_cvtps_pd(_mm_loadu_ps(xhat_row + i));
    const __m256d t =
        _mm256_sub_pd(_mm256_sub_pd(gy, vmg), _mm256_mul_pd(xh, vmgx));
    const __m128 contrib = _mm256_cvtpd_ps(_mm256_mul_pd(vinv, t));
    _mm_storeu_ps(gx_row + i,
                  _mm_add_ps(_mm_loadu_ps(gx_row + i), contrib));
  }
  for (; i < n; ++i) {
    const double gy = static_cast<double>(g_row[i]) * gamma[i];
    gx_row[i] += static_cast<float>(
        static_cast<double>(inv_sigma) *
        (gy - mean_gy - static_cast<double>(xhat_row[i]) * mean_gy_xhat));
  }
}

// ---------------------------- depthwise conv -------------------------------

void dwconv3d_interior_row(float* orow, std::int64_t ow_lo, std::int64_t ow_hi,
                           float bias, const float* xch, const float* wch,
                           std::int64_t od, std::int64_t oh, std::int64_t pad,
                           std::int64_t a_lo, std::int64_t a_hi,
                           std::int64_t i_lo, std::int64_t i_hi,
                           std::int64_t kh, std::int64_t kw, std::int64_t hin,
                           std::int64_t win) {
  const __m256 vb = _mm256_set1_ps(bias);
  std::int64_t ow = ow_lo;
  // Eight adjacent outputs per step: taps walk (a, i, j) ascending exactly
  // like the scalar band, with unaligned x loads shifted by one per j.
  for (; ow + 8 <= ow_hi; ow += 8) {
    __m256 acc = vb;
    for (std::int64_t a = a_lo; a < a_hi; ++a)
      for (std::int64_t i = i_lo; i < i_hi; ++i) {
        const float* xrow =
            xch + ((od - pad + a) * hin + oh - pad + i) * win + ow - pad;
        const float* wrow = wch + (a * kh + i) * kw;
        for (std::int64_t j = 0; j < kw; ++j)
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(xrow + j),
                                _mm256_set1_ps(wrow[j]), acc);
      }
    _mm256_storeu_ps(orow + ow, acc);
  }
  // Float-FMA tail in the same tap order (the backend's fixed chain; the
  // double-accumulating scalar backend is the cross-check reference).
  for (; ow < ow_hi; ++ow) {
    float acc = bias;
    for (std::int64_t a = a_lo; a < a_hi; ++a)
      for (std::int64_t i = i_lo; i < i_hi; ++i) {
        const float* xrow =
            xch + ((od - pad + a) * hin + oh - pad + i) * win + ow - pad;
        const float* wrow = wch + (a * kh + i) * kw;
        for (std::int64_t j = 0; j < kw; ++j)
          acc = std::fmaf(xrow[j], wrow[j], acc);
      }
    orow[ow] = acc;
  }
}

void dwconv1d_interior_row(float* orow, const float* x, const float* wt,
                           const float* pb, std::int64_t cols,
                           std::int64_t kernel) {
  std::int64_t c = 0;
  // Eight channels per step; wt is the (kernel x cols) weight transpose the
  // caller packs once per forward, so both operand streams are contiguous.
  for (; c + 8 <= cols; c += 8) {
    __m256 acc = pb ? _mm256_loadu_ps(pb + c) : _mm256_setzero_ps();
    for (std::int64_t k = 0; k < kernel; ++k)
      acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + k * cols + c),
                            _mm256_loadu_ps(wt + k * cols + c), acc);
    _mm256_storeu_ps(orow + c, acc);
  }
  for (; c < cols; ++c) {
    float acc = pb ? pb[c] : 0.0f;
    for (std::int64_t k = 0; k < kernel; ++k)
      acc = std::fmaf(x[k * cols + c], wt[k * cols + c], acc);
    orow[c] = acc;
  }
}

// ------------------------------ ADI lines ----------------------------------

template <int kGroups>
void tridiag_lines(const double* c, const double* denom, const double* sub,
                   std::int64_t n, double* data, std::int64_t elem_stride,
                   std::int64_t lane_stride, double rhs0_add, double* d) {
  constexpr std::int64_t kLanes = 4 * kGroups;
  const bool contiguous = lane_stride == 1;
  // Group g holds lanes 4g..4g+3.
  const auto load_lanes = [&](std::int64_t i, int g) {
    const double* p = data + i * elem_stride + 4 * g * lane_stride;
    if (contiguous) return _mm256_loadu_pd(p);
    return _mm256_set_pd(p[3 * lane_stride], p[2 * lane_stride],
                         p[lane_stride], p[0]);
  };
  const __m256d zero = _mm256_setzero_pd();
  const auto store_lanes_clamped = [&](std::int64_t i, int g, __m256d v) {
    // max_pd(0, x) keeps NaN (second operand wins on unordered), matching
    // the scalar std::max(x, 0.0) writeback.
    v = _mm256_max_pd(zero, v);
    double* p = data + i * elem_stride + 4 * g * lane_stride;
    if (contiguous) {
      _mm256_storeu_pd(p, v);
      return;
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, v);
    p[0] = lanes[0];
    p[lane_stride] = lanes[1];
    p[2 * lane_stride] = lanes[2];
    p[3 * lane_stride] = lanes[3];
  };

  // Forward substitution: d[i] = (rhs[i] - sub[i] * d[i-1]) / denom[i].
  // The elimination coefficients are shared scalars (prefactored bands);
  // each lane only carries its own d chain, and the groups' chains are
  // independent, so their divisions overlap. True divisions, not
  // reciprocal-multiplies: each lane matches the scalar Thomas solve op for
  // op.
  __m256d dprev[kGroups];
  for (int g = 0; g < kGroups; ++g) {
    dprev[g] = _mm256_div_pd(
        _mm256_add_pd(load_lanes(0, g), _mm256_set1_pd(rhs0_add)),
        _mm256_set1_pd(denom[0]));
    _mm256_storeu_pd(d + 4 * g, dprev[g]);
  }
  for (std::int64_t i = 1; i < n; ++i) {
    const __m256d sub_i = _mm256_set1_pd(sub[i]);
    const __m256d denom_i = _mm256_set1_pd(denom[i]);
    for (int g = 0; g < kGroups; ++g) {
      dprev[g] = _mm256_div_pd(
          _mm256_sub_pd(load_lanes(i, g), _mm256_mul_pd(sub_i, dprev[g])),
          denom_i);
      _mm256_storeu_pd(d + kLanes * i + 4 * g, dprev[g]);
    }
  }

  // Back substitution with in-place >= 0 clamp on the writeback; the
  // recurrence itself runs on the unclamped solution.
  __m256d xnext[kGroups];
  for (int g = 0; g < kGroups; ++g) {
    xnext[g] = dprev[g];
    store_lanes_clamped(n - 1, g, xnext[g]);
  }
  for (std::int64_t i = n - 1; i-- > 0;) {
    const __m256d c_i = _mm256_set1_pd(c[i]);
    for (int g = 0; g < kGroups; ++g) {
      xnext[g] = _mm256_sub_pd(_mm256_loadu_pd(d + kLanes * i + 4 * g),
                               _mm256_mul_pd(c_i, xnext[g]));
      store_lanes_clamped(i, g, xnext[g]);
    }
  }
}

template void tridiag_lines<1>(const double*, const double*, const double*,
                               std::int64_t, double*, std::int64_t,
                               std::int64_t, double, double*);
template void tridiag_lines<2>(const double*, const double*, const double*,
                               std::int64_t, double*, std::int64_t,
                               std::int64_t, double, double*);

// ------------------------------ PEB reaction -------------------------------
// The scalar loop's IEEE ops in the same order, four voxels per vector: the
// small-|u| branch becomes a blend of the two numerators and denominators
// ahead of one division, std::max(x, 0.0) becomes max_pd(0, x) (same result
// for NaN and -0.0), and std::exp becomes exp4d. The last 1-3 voxels run the
// same vector code under a lane mask, so a voxel's result does not depend on
// where the chunk boundaries fall.

bool peb_reaction(const PebReaction& r, std::int64_t i0, std::int64_t i1) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d neg_kc = _mm256_set1_pd(-r.kc);
  const __m256d kr = _mm256_set1_pd(r.kr);
  const __m256d neg_kr = _mm256_set1_pd(-r.kr);
  const __m256d dt = _mm256_set1_pd(r.dt);
  const __m256d small_u = _mm256_set1_pd(1e-12);
  const __m256d limit = _mm256_set1_pd(r.limit);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  __m256d bad = zero;  // all-ones lanes where a written value failed

  for (std::int64_t i = i0; i < i1; i += 4) {
    const std::int64_t valid = i1 - i;
    const bool full = valid >= 4;
    const __m256i lanes =
        full ? _mm256_set1_epi64x(-1)
             : _mm256_set_epi64x(0, valid > 2 ? -1 : 0, valid > 1 ? -1 : 0,
                                 -1);
    const auto load = [&](const double* p) {
      return full ? _mm256_loadu_pd(p + i) : _mm256_maskload_pd(p + i, lanes);
    };
    const auto store = [&](double* p, __m256d v) {
      if (full)
        _mm256_storeu_pd(p + i, v);
      else
        _mm256_maskstore_pd(p + i, lanes, v);
    };

    const __m256d a0 = load(r.acid_in);
    const __m256d b0 = load(r.base_in);
    const __m256d inh1 = _mm256_mul_pd(
        load(r.inhibitor_in),
        exp4d(_mm256_mul_pd(_mm256_mul_pd(neg_kc, a0), dt)));
    const __m256d u = _mm256_sub_pd(a0, b0);
    const __m256d decay =
        exp4d(_mm256_mul_pd(_mm256_mul_pd(neg_kr, u), dt));
    const __m256d near_zero =
        _mm256_cmp_pd(_mm256_and_pd(u, abs_mask), small_u, _CMP_LT_OQ);
    const __m256d num = _mm256_blendv_pd(_mm256_mul_pd(u, a0), a0, near_zero);
    const __m256d den = _mm256_blendv_pd(
        _mm256_sub_pd(a0, _mm256_mul_pd(b0, decay)),
        _mm256_add_pd(one, _mm256_mul_pd(_mm256_mul_pd(kr, a0), dt)),
        near_zero);
    const __m256d a1 = _mm256_max_pd(zero, _mm256_div_pd(num, den));
    const __m256d b1 = _mm256_max_pd(zero, _mm256_sub_pd(a1, u));
    store(r.inhibitor_out, inh1);
    store(r.acid_out, a1);
    store(r.base_out, b1);
    if (r.check) {
      // NLE_UQ is !(|v| <= limit): true on NaN, like the scalar compare.
      __m256d fail = _mm256_or_pd(
          _mm256_cmp_pd(_mm256_and_pd(a1, abs_mask), limit, _CMP_NLE_UQ),
          _mm256_cmp_pd(_mm256_and_pd(b1, abs_mask), limit, _CMP_NLE_UQ));
      fail = _mm256_or_pd(
          fail,
          _mm256_cmp_pd(_mm256_and_pd(inh1, abs_mask), limit, _CMP_NLE_UQ));
      bad = _mm256_or_pd(bad,
                         _mm256_and_pd(fail, _mm256_castsi256_pd(lanes)));
    }
  }
  return _mm256_movemask_pd(bad) == 0;
}

// ----------------------------- selective scan ------------------------------
// One channel's N = 8 states live in one register; the recurrence runs
// serially in t per channel, channels of the block interleaved per step.

void scan_forward8(const ScanArgs& s, std::int64_t c0, std::int64_t c1,
                   float* state, float* out, float* hidden) {
  constexpr std::int64_t kN = 8;
  const auto channels = s.channels;
  for (std::int64_t i = 0; i < (c1 - c0) * kN; i += kN)
    _mm256_storeu_ps(state + i, _mm256_setzero_ps());
  for (std::int64_t t = 0; t < s.seq_len; ++t) {
    const __m256 b = _mm256_loadu_ps(s.b + t * kN);
    const __m256 c = _mm256_loadu_ps(s.c + t * kN);
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      const float dt = delta_at(s, t, ch);
      const float xt = s.x[t * channels + ch];
      float* h = state + (ch - c0) * kN;
      const __m256 a_bar = exp8(_mm256_mul_ps(
          _mm256_set1_ps(dt), _mm256_loadu_ps(s.a_neg + ch * kN)));
      // h = a_bar * h + (dt * B) * x: the input term rounds as in the
      // scalar reference, the decay is one FMA.
      const __m256 input = _mm256_mul_ps(
          _mm256_mul_ps(_mm256_set1_ps(dt), b), _mm256_set1_ps(xt));
      const __m256 hv = _mm256_fmadd_ps(a_bar, _mm256_loadu_ps(h), input);
      _mm256_storeu_ps(h, hv);
      if (hidden) _mm256_storeu_ps(hidden + (t * channels + ch) * kN, hv);
      out[t * channels + ch] =
          s.d_skip[ch] * xt + hsum8(_mm256_mul_ps(c, hv));
    }
  }
}

void scan_adjoint8(const ScanArgs& s, std::int64_t c0, std::int64_t c1,
                   const float* hidden, const float* g, float* dh,
                   const ScanGrads& grads) {
  constexpr std::int64_t kN = 8;
  const auto channels = s.channels;
  for (std::int64_t i = 0; i < (c1 - c0) * kN; i += kN)
    _mm256_storeu_ps(dh + i, _mm256_setzero_ps());
  for (std::int64_t t = s.seq_len - 1; t >= 0; --t) {
    const __m256 b = _mm256_loadu_ps(s.b + t * kN);
    const __m256 c = _mm256_loadu_ps(s.c + t * kN);
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      const float dy = g[t * channels + ch];
      const float dt = delta_at(s, t, ch);
      const float xt = s.x[t * channels + ch];
      if (grads.d_skip) grads.d_skip[ch] += dy * xt;
      const __m256 a = _mm256_loadu_ps(s.a_neg + ch * kN);
      const __m256 a_bar = exp8(_mm256_mul_ps(_mm256_set1_ps(dt), a));
      const __m256 h_prev =
          t > 0 ? _mm256_loadu_ps(hidden + ((t - 1) * channels + ch) * kN)
                : _mm256_setzero_ps();
      float* dhrow = dh + (ch - c0) * kN;
      // Adjoint of h_t = a_bar * h_prev + dt * B_t * x_t (see the scalar
      // reference for the per-state terms).
      const __m256 dh_t =
          _mm256_fmadd_ps(c, _mm256_set1_ps(dy), _mm256_loadu_ps(dhrow));
      const __m256 da_bar = _mm256_mul_ps(dh_t, h_prev);
      const __m256 a_a_bar = _mm256_mul_ps(a, a_bar);
      const __m256 dh_b = _mm256_mul_ps(dh_t, b);
      if (grads.b_terms)
        _mm256_storeu_ps(grads.b_terms + (t * channels + ch) * kN,
                         _mm256_mul_ps(dh_t, _mm256_set1_ps(dt * xt)));
      if (grads.a_log) {
        float* ga = grads.a_log + ch * kN;
        _mm256_storeu_ps(
            ga, _mm256_fmadd_ps(_mm256_mul_ps(da_bar, _mm256_set1_ps(dt)),
                                a_a_bar, _mm256_loadu_ps(ga)));
      }
      _mm256_storeu_ps(dhrow, _mm256_mul_ps(dh_t, a_bar));
      if (grads.x)
        grads.x[t * channels + ch] += s.d_skip[ch] * dy + dt * hsum8(dh_b);
      if (grads.delta)
        grads.delta[t * channels + ch] += hsum8(_mm256_fmadd_ps(
            dh_b, _mm256_set1_ps(xt), _mm256_mul_ps(da_bar, a_a_bar)));
    }
  }
}

}  // namespace sdmpeb::simd::avx2

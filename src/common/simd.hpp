#pragma once

#include <cstdint>

// Runtime-dispatched SIMD kernel layer. Every hot inner loop that used to
// rely on the autovectorizer now has a hand-written AVX2+FMA implementation
// living in simd_avx2.cpp (the only TU compiled with -mavx2 -mfma), selected
// at runtime from CPUID. The scalar implementations in simd.cpp are the
// portable bitwise-reference backend and the only ones built on non-x86.
//
// Determinism contract (DESIGN.md §11):
//   - Within one backend, every kernel fixes its intra-element accumulation
//     order, so results are bitwise identical at any SDMPEB_THREADS.
//   - The elementwise kernels (vadd/vsub/vmul/vscale/vaxpy/vmul_add, relu,
//     leaky_relu) and the ADI line solves perform the same correctly-rounded
//     IEEE op sequence in both backends — no FMA contraction — so they are
//     bitwise identical ACROSS backends too.
//   - GEMM, depthwise conv, layer norm, the selective scan and the PEB
//     reaction change the accumulation shape or the exp under AVX2 (FMA,
//     lane-split sums, vector exps); those are tolerance-checked
//     cross-backend and bitwise only within a backend.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SDMPEB_SIMD_X86 1
#else
#define SDMPEB_SIMD_X86 0
#endif

namespace sdmpeb::simd {

/// Kernel instruction-set backends. Numeric values are stable: they feed
/// the "kernel.backend" gauge (0 = scalar, 1 = avx2).
enum class Isa {
  kScalar = 0,
  kAvx2 = 1,
};

/// True when the CPU supports AVX2 and FMA (both are required for the
/// vector backend; FMA-less AVX2 parts would change the contract anyway).
bool cpu_has_avx2();

/// Active backend. Resolved once, lazily: best ISA the CPU supports,
/// overridden by SDMPEB_BACKEND=scalar|avx2 (an avx2 request on a host
/// without AVX2+FMA logs a warning and falls back to scalar, so CI matrix
/// jobs degrade gracefully). set_active overrides in-process (tests,
/// roofline benches); it clamps to what the CPU supports.
Isa active();
void set_active(Isa isa);

/// "scalar" / "avx2" — backend column in bench CSVs.
const char* isa_name(Isa isa);

/// Detected CPU feature summary, e.g. "sse4.2+avx+avx2+fma+avx512f"
/// ("generic" off x86) — recorded next to the backend column so perf
/// trajectories are comparable across machines.
const char* cpu_feature_string();

// ---------------------------------------------------------------------------
// GEMM microtile. The packed driver (gemm.cpp) keeps its 6x8 scalar tile;
// when the AVX2 backend is active it swaps in a 6x16 tile (12 ymm
// accumulators, broadcast-A FMA) plus maskload/maskstore edge handling, and
// widens the B panel packing to 16 columns.
// ---------------------------------------------------------------------------

/// Signature shared by the scalar and AVX2 C-tile kernels: accumulate
/// op(A)op(B) over kb packed k-steps into the rows x cols corner of C
/// (seeded from beta-scaled C on the first k panel).
using GemmTileFn = void (*)(std::int64_t kb, const float* ap, const float* bp,
                            float* c, std::int64_t ldc, std::int64_t rows,
                            std::int64_t cols, float beta, bool first_panel);

/// B-panel width of the AVX2 microtile (two ymm columns).
inline constexpr std::int64_t kNrAvx2 = 16;

/// The AVX2 6x16 tile when that backend is active, else nullptr (caller
/// stays on the scalar 6x8 tile).
GemmTileFn gemm_tile_16();

// ---------------------------------------------------------------------------
// Elementwise kernels — bitwise identical across backends (see contract
// above). Callers invoke them per parallel chunk; the vector/tail split is
// chunk-local and fixed, so chunking alone decides determinism and the
// chunking is thread-count independent (common/parallel.hpp).
// ---------------------------------------------------------------------------

void vadd(float* dst, const float* src, std::int64_t n);     ///< dst += src
void vsub(float* dst, const float* src, std::int64_t n);     ///< dst -= src
void vmul(float* dst, const float* src, std::int64_t n);     ///< dst *= src
void vscale(float* dst, float s, std::int64_t n);            ///< dst *= s
/// dst += s * src, rounded per multiply then per add (never fused).
void vaxpy(float* dst, const float* src, float s, std::int64_t n);
/// dst += a * b elementwise, rounded per multiply then per add.
void vmul_add(float* dst, const float* a, const float* b, std::int64_t n);
void vrelu(float* dst, const float* src, std::int64_t n);    ///< max(x, 0)
/// dst += g * (in > 0 ? 1 : 0)
void vrelu_bwd(float* dst, const float* g, const float* in, std::int64_t n);
/// x > 0 ? x : slope * x
void vleaky_relu(float* dst, const float* src, float slope, std::int64_t n);
/// dst += g * (in > 0 ? 1 : slope)
void vleaky_relu_bwd(float* dst, const float* g, const float* in, float slope,
                     std::int64_t n);

// ---------------------------------------------------------------------------
// Layer-norm row kernels. Scalar backend reproduces the historical loops
// (ascending double accumulation); AVX2 accumulates in 4 double lanes folded
// in a fixed order — deterministic per backend, tolerance cross-backend.
// ---------------------------------------------------------------------------

/// Row mean and 1/sqrt(var + eps) (both as float, matching the historical
/// precision at the point of use).
void layer_norm_stats(const float* row, std::int64_t n, float eps,
                      float* mean_out, float* inv_sigma_out);
/// xhat = (row - mean) * inv_sigma; out = xhat * gamma + beta.
void layer_norm_apply(float* out_row, float* xhat_row, const float* row,
                      const float* gamma, const float* beta, float mean,
                      float inv_sigma, std::int64_t n);
/// sum(gy) and sum(gy * xhat) with gy = double(g) * double(gamma); caller
/// divides by n.
void layer_norm_bwd_sums(const float* g_row, const float* xhat_row,
                         const float* gamma, std::int64_t n, double* sum_gy,
                         double* sum_gy_xhat);
/// gx += float(inv_sigma * (gy - mean_gy - xhat * mean_gy_xhat)).
void layer_norm_bwd_apply(float* gx_row, const float* g_row,
                          const float* xhat_row, const float* gamma,
                          float inv_sigma, double mean_gy, double mean_gy_xhat,
                          std::int64_t n);

// ---------------------------------------------------------------------------
// Depthwise-conv interior rows (the branch-free bands carved out by the
// callers in nn/ops_conv.cpp; edges keep their scalar bounds-checked loops).
// Scalar backend accumulates in double exactly like the historical kernels;
// AVX2 accumulates 8 outputs per step in float FMA — tolerance
// cross-backend.
// ---------------------------------------------------------------------------

/// orow[ow] for ow in [ow_lo, ow_hi) of one (channel, od, oh) output row of
/// the 3-D depthwise conv; the (a, i) tap ranges are pre-clamped by the
/// caller and every tap is in-bounds across the whole band.
void dwconv3d_interior_row(float* orow, std::int64_t ow_lo, std::int64_t ow_hi,
                           float bias, const float* xch, const float* wch,
                           std::int64_t od, std::int64_t oh, std::int64_t pad,
                           std::int64_t a_lo, std::int64_t a_hi,
                           std::int64_t i_lo, std::int64_t i_hi,
                           std::int64_t kh, std::int64_t kw, std::int64_t hin,
                           std::int64_t win);

/// One interior row of the per-channel sequence conv: orow[c] for all cols,
/// x = px + (l - pad) * cols. w is the stored (cols x kernel) weight layout
/// (scalar backend); wt is the (kernel x cols) transpose the caller packs
/// once per forward when the AVX2 backend is active (pass nullptr to force
/// the scalar path).
void dwconv1d_interior_row(float* orow, const float* x, const float* w,
                           const float* wt, const float* pb, std::int64_t cols,
                           std::int64_t kernel);

// ---------------------------------------------------------------------------
// ADI tridiagonal line batches. The Thomas recurrence is serial along one
// line, so the AVX2 kernel vectorizes ACROSS independent lines that share
// one prefactored band set (peb/tridiag.hpp): four lines per vector, and
// with eight lines two vectors step together, so one group's division chain
// runs while the other's waits. Lane l element i lives at
// data[i * elem_stride + l * lane_stride].
// ---------------------------------------------------------------------------

/// Fused forward/back substitution over a fixed lane count: rhs read from
/// the grid (rhs0_add folded into element 0 of every lane — the Robin source
/// term), solutions clamped at >= 0 (NaN propagates) and written back in
/// place. c = sup/denom and denom are the shared prefactored coefficients;
/// sub is the subdiagonal band. d is lanes*n doubles of lane-interleaved
/// scratch.
using TridiagLinesFn = void (*)(const double* c, const double* denom,
                                const double* sub, std::int64_t n,
                                double* data, std::int64_t elem_stride,
                                std::int64_t lane_stride, double rhs0_add,
                                double* d);

/// The AVX2 solver for exactly `lanes` lines (4 or 8) when that backend is
/// active, else nullptr (callers run the scalar per-lane substitution).
TridiagLinesFn tridiag_lines(int lanes);

// ---------------------------------------------------------------------------
// PEB reaction (peb/peb_solver.cpp). One pointwise pass advances the
// acid-base neutralisation and the catalytic deprotection of each voxel by
// dt and, when asked, reports whether every value it wrote stayed finite
// and bounded: the solver's divergence guard rides along with the pass. The
// scalar backend is the historical loop op for op; AVX2 runs four voxels
// per vector in the same IEEE op order except for a 4-lane double exp, so
// it is tolerance-checked against scalar.
// ---------------------------------------------------------------------------

/// Operands of one reaction pass. The *_out buffers are either the *_in
/// buffers (in place) or a disjoint set.
struct PebReaction {
  const double* acid_in = nullptr;
  const double* base_in = nullptr;
  const double* inhibitor_in = nullptr;
  double* acid_out = nullptr;
  double* base_out = nullptr;
  double* inhibitor_out = nullptr;
  double kr = 0.0;  ///< neutralisation coefficient k_r (1/s)
  double kc = 0.0;  ///< catalysis coefficient k_c (1/s)
  double dt = 0.0;  ///< sub-step length (s)
  /// When set, the pass checks !(|v| <= limit) for every value it writes;
  /// NaN and +/-Inf always fail.
  bool check = false;
  double limit = 0.0;
};

/// Advance voxels [i0, i1). Returns false when `check` is set and a written
/// value failed the bound, else true.
bool peb_reaction(const PebReaction& r, std::int64_t i0, std::int64_t i1);

// ---------------------------------------------------------------------------
// Selective scan (nn/ops_scan.cpp). One call runs a block of channels over
// the whole sequence; channel recurrences are independent, so the caller
// splits channels into fixed blocks and every element's arithmetic is the
// same at any thread count. N = 8 states fill one ymm register: the AVX2
// backend runs that case with an 8-lane exp and FMA (tolerance
// cross-backend); the scalar backend, and the AVX2 one at any other N, run
// the scalar reference, which reproduces the historical serial loop bit for
// bit.
// ---------------------------------------------------------------------------

/// softplus(v) = max(v, 0) + log1p(exp(-|v|)), the nn::ops::softplus map.
/// Out of line so both backends round it identically.
float softplus(float v);

/// Operands of the scan over (L, C) inputs with N states (ops.hpp).
/// Δ[t, c] is delta[t * C + c] when `delta` is set, else the fused Eq. 11,
/// softplus(delta_col[t] + delta_bias[c]).
struct ScanArgs {
  std::int64_t seq_len = 0, channels = 0, states = 0;
  const float* delta = nullptr;       ///< (L, C) step sizes, or nullptr
  const float* delta_col = nullptr;   ///< (L) Linear_1 output
  const float* delta_bias = nullptr;  ///< (C)
  const float* x = nullptr;           ///< (L, C)
  const float* a_neg = nullptr;       ///< (C, N), A = -exp(a_log)
  const float* b = nullptr;           ///< (L, N)
  const float* c = nullptr;           ///< (L, N)
  const float* d_skip = nullptr;      ///< (C)
};

/// Forward over channels [c0, c1): out (L, C) rows get y[t, c]; hidden,
/// when non-null, receives the (L, C, N) state trajectory. `state` is
/// (c1 - c0) * N floats of caller scratch.
void scan_forward(const ScanArgs& s, std::int64_t c0, std::int64_t c1,
                  float* state, float* out, float* hidden);

/// Gradient buffers of the scan's adjoint; a null pointer skips that term.
struct ScanGrads {
  float* x = nullptr;       ///< (L, C), accumulated
  float* delta = nullptr;   ///< (L, C) dL/dΔ, accumulated
  float* a_log = nullptr;   ///< (C, N), accumulated
  float* d_skip = nullptr;  ///< (C), accumulated
  /// (L, C, N): written with each channel's dL/dB[t, n] term; the caller
  /// folds them over channels in ascending order.
  float* b_terms = nullptr;
};

/// Reverse-time adjoint over channels [c0, c1), given the forward's
/// trajectory and the output gradient g (L, C). `dh` is (c1 - c0) * N
/// floats of caller scratch.
void scan_adjoint(const ScanArgs& s, std::int64_t c0, std::int64_t c1,
                  const float* hidden, const float* g, float* dh,
                  const ScanGrads& grads);

#if SDMPEB_SIMD_X86
/// Raw AVX2 kernels (simd_avx2.cpp, compiled -mavx2 -mfma -ffp-contract=off).
/// Call only through the dispatchers above — these are exposed for the
/// dispatcher and the per-kernel tests.
namespace avx2 {
void gemm_tile_6x16(std::int64_t kb, const float* ap, const float* bp,
                    float* c, std::int64_t ldc, std::int64_t rows,
                    std::int64_t cols, float beta, bool first_panel);
void vadd(float* dst, const float* src, std::int64_t n);
void vsub(float* dst, const float* src, std::int64_t n);
void vmul(float* dst, const float* src, std::int64_t n);
void vscale(float* dst, float s, std::int64_t n);
void vaxpy(float* dst, const float* src, float s, std::int64_t n);
void vmul_add(float* dst, const float* a, const float* b, std::int64_t n);
void vrelu(float* dst, const float* src, std::int64_t n);
void vrelu_bwd(float* dst, const float* g, const float* in, std::int64_t n);
void vleaky_relu(float* dst, const float* src, float slope, std::int64_t n);
void vleaky_relu_bwd(float* dst, const float* g, const float* in, float slope,
                     std::int64_t n);
void layer_norm_stats(const float* row, std::int64_t n, float eps,
                      float* mean_out, float* inv_sigma_out);
void layer_norm_apply(float* out_row, float* xhat_row, const float* row,
                      const float* gamma, const float* beta, float mean,
                      float inv_sigma, std::int64_t n);
void layer_norm_bwd_sums(const float* g_row, const float* xhat_row,
                         const float* gamma, std::int64_t n, double* sum_gy,
                         double* sum_gy_xhat);
void layer_norm_bwd_apply(float* gx_row, const float* g_row,
                          const float* xhat_row, const float* gamma,
                          float inv_sigma, double mean_gy, double mean_gy_xhat,
                          std::int64_t n);
void dwconv3d_interior_row(float* orow, std::int64_t ow_lo, std::int64_t ow_hi,
                           float bias, const float* xch, const float* wch,
                           std::int64_t od, std::int64_t oh, std::int64_t pad,
                           std::int64_t a_lo, std::int64_t a_hi,
                           std::int64_t i_lo, std::int64_t i_hi,
                           std::int64_t kh, std::int64_t kw, std::int64_t hin,
                           std::int64_t win);
void dwconv1d_interior_row(float* orow, const float* x, const float* wt,
                           const float* pb, std::int64_t cols,
                           std::int64_t kernel);
/// The ADI substitution over kGroups groups of four lanes; one body,
/// instantiated for 1 and 2 groups in simd_avx2.cpp.
template <int kGroups>
void tridiag_lines(const double* c, const double* denom, const double* sub,
                   std::int64_t n, double* data, std::int64_t elem_stride,
                   std::int64_t lane_stride, double rhs0_add, double* d);
extern template void tridiag_lines<1>(const double*, const double*,
                                      const double*, std::int64_t, double*,
                                      std::int64_t, std::int64_t, double,
                                      double*);
extern template void tridiag_lines<2>(const double*, const double*,
                                      const double*, std::int64_t, double*,
                                      std::int64_t, std::int64_t, double,
                                      double*);
bool peb_reaction(const PebReaction& r, std::int64_t i0, std::int64_t i1);
/// The scan kernels at N = 8 (ScanArgs::states must be 8).
void scan_forward8(const ScanArgs& s, std::int64_t c0, std::int64_t c1,
                   float* state, float* out, float* hidden);
void scan_adjoint8(const ScanArgs& s, std::int64_t c0, std::int64_t c1,
                   const float* hidden, const float* g, float* dh,
                   const ScanGrads& grads);
}  // namespace avx2
#endif  // SDMPEB_SIMD_X86

}  // namespace sdmpeb::simd

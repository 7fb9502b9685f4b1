// Packed cache-blocked GEMM core. This translation unit is compiled with
// -ffp-contract=off (see src/common/CMakeLists.txt): every product is
// rounded before it is added, which is what makes the scalar packed kernel
// bitwise-reproducible against the three-loop test oracle (compiled the
// same way). When the AVX2 kernel backend is active (common/simd.hpp), the
// driver below swaps the 6x8 scalar microtile for the 6x16 FMA tile in
// simd_avx2.cpp and widens the B panels to match; that backend trades the
// bitwise-vs-oracle property for throughput and is tolerance-checked
// instead (DESIGN.md §11).

#include "common/gemm.hpp"

#include <algorithm>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define SDMPEB_GEMM_RESTRICT __restrict__
#else
#define SDMPEB_GEMM_RESTRICT
#endif

namespace sdmpeb::gemm {

namespace {

/// beta pre-pass for the degenerate k == 0 case (no products to add).
void scale_c(std::int64_t m, std::int64_t n, float* c, std::int64_t ldc,
             float beta) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    if (beta == 0.0f)
      std::fill(crow, crow + n, 0.0f);
    else if (beta != 1.0f)
      for (std::int64_t j = 0; j < n; ++j) crow[j] *= beta;
  }
}

/// Pack rows [i0, i0 + mb) x k [p0, p0 + kb) of op(A) into kMr-row panels:
/// panel ir starts at ap + ir * kb and stores kMr consecutive row values
/// per k step (rows beyond mb are zero-padded; the padded output rows are
/// discarded at store time, so the padding never reaches C).
void pack_a(const float* a, std::int64_t lda, bool trans_a, std::int64_t i0,
            std::int64_t mb, std::int64_t p0, std::int64_t kb, float* ap) {
  for (std::int64_t ir = 0; ir < mb; ir += kMr) {
    const auto rows = std::min(kMr, mb - ir);
    float* dst = ap + ir * kb;
    if (trans_a) {
      // op(A) rows are contiguous in the stored k-major layout.
      for (std::int64_t kk = 0; kk < kb; ++kk) {
        const float* src = a + (p0 + kk) * lda + i0 + ir;
        for (std::int64_t r = 0; r < kMr; ++r)
          dst[kk * kMr + r] = r < rows ? src[r] : 0.0f;
      }
    } else {
      for (std::int64_t r = 0; r < kMr; ++r) {
        if (r < rows) {
          const float* src = a + (i0 + ir + r) * lda + p0;
          for (std::int64_t kk = 0; kk < kb; ++kk)
            dst[kk * kMr + r] = src[kk];
        } else {
          for (std::int64_t kk = 0; kk < kb; ++kk) dst[kk * kMr + r] = 0.0f;
        }
      }
    }
  }
}

/// Pack k [p0, p0 + kb) x cols [j0, j0 + nb) of op(B) into NR-column
/// panels: panel jr starts at bp + jr * kb, NR consecutive column values
/// per k step, zero-padded past nb. NR is the microtile width of the active
/// kernel backend: kNr (8) for the scalar tile, simd::kNrAvx2 (16) for the
/// AVX2 tile.
template <std::int64_t NR>
void pack_b(const float* b, std::int64_t ldb, bool trans_b, std::int64_t p0,
            std::int64_t kb, std::int64_t j0, std::int64_t nb, float* bp) {
  for (std::int64_t jr = 0; jr < nb; jr += NR) {
    const auto cols = std::min(NR, nb - jr);
    float* dst = bp + jr * kb;
    if (trans_b) {
      for (std::int64_t kk = 0; kk < kb; ++kk)
        for (std::int64_t col = 0; col < NR; ++col)
          dst[kk * NR + col] =
              col < cols ? b[(j0 + jr + col) * ldb + p0 + kk] : 0.0f;
    } else {
      for (std::int64_t kk = 0; kk < kb; ++kk) {
        const float* src = b + (p0 + kk) * ldb + j0 + jr;
        for (std::int64_t col = 0; col < NR; ++col)
          dst[kk * NR + col] = col < cols ? src[col] : 0.0f;
      }
    }
  }
}

/// kMr x kNr register-tile inner loop: acc += Ap_panel @ Bp_panel over kb
/// steps, k strictly ascending, one accumulator per element. The loop shape
/// (constant trip counts, unit strides, no branches) is what the
/// autovectorizer wants; with -march=native it emits vector FMA per row.
inline void micro_kernel(std::int64_t kb, const float* SDMPEB_GEMM_RESTRICT ap,
                         const float* SDMPEB_GEMM_RESTRICT bp,
                         float* SDMPEB_GEMM_RESTRICT acc) {
  for (std::int64_t kk = 0; kk < kb; ++kk) {
    const float* arow = ap + kk * kMr;
    const float* brow = bp + kk * kNr;
    for (std::int64_t i = 0; i < kMr; ++i) {
      const float av = arow[i];
      float* crow = acc + i * kNr;
      for (std::int64_t j = 0; j < kNr; ++j) crow[j] += av * brow[j];
    }
  }
}

/// One C tile: seed the accumulators from C (beta-scaled on the first k
/// panel, raw after — so each element's chain is beta*c, +t0, +t1, ... with
/// a rounding per step, exactly the three-loop order), run the microkernel,
/// store the valid rows x cols region back.
void compute_tile(std::int64_t kb, const float* ap, const float* bp, float* c,
                  std::int64_t ldc, std::int64_t rows, std::int64_t cols,
                  float beta, bool first_panel) {
  alignas(64) float acc[kMr * kNr];
  const bool full = rows == kMr && cols == kNr;
  if (first_panel && beta == 0.0f) {
    for (std::int64_t i = 0; i < kMr * kNr; ++i) acc[i] = 0.0f;
  } else {
    const float scale = first_panel ? beta : 1.0f;
    for (std::int64_t i = 0; i < kMr; ++i)
      for (std::int64_t j = 0; j < kNr; ++j)
        acc[i * kNr + j] = (i < rows && j < cols)
                               ? c[i * ldc + j] * scale
                               : 0.0f;
  }
  micro_kernel(kb, ap, bp, acc);
  if (full) {
    for (std::int64_t i = 0; i < kMr; ++i)
      for (std::int64_t j = 0; j < kNr; ++j) c[i * ldc + j] = acc[i * kNr + j];
  } else {
    for (std::int64_t i = 0; i < rows; ++i)
      for (std::int64_t j = 0; j < cols; ++j) c[i * ldc + j] = acc[i * kNr + j];
  }
}

/// The microtile set the packed driver runs: B-panel width, matching
/// packer, and C-tile kernel. Both sets share pack_a (kMr = 6 rows).
struct KernelSet {
  std::int64_t nr;
  void (*pack_b)(const float*, std::int64_t, bool, std::int64_t, std::int64_t,
                 std::int64_t, std::int64_t, float*);
  simd::GemmTileFn tile;
};

static_assert(kMr == 6, "both microtiles hardcode 6 A-panel rows");

KernelSet active_kernels() {
  if (const simd::GemmTileFn tile16 = simd::gemm_tile_16())
    return {simd::kNrAvx2, &pack_b<simd::kNrAvx2>, tile16};
  return {kNr, &pack_b<kNr>, &compute_tile};
}

void run_packed(std::int64_t m, std::int64_t n, std::int64_t k,
                const float* a, std::int64_t lda, bool trans_a,
                const float* b, std::int64_t ldb, bool trans_b, float* c,
                std::int64_t ldc, float beta) {
  SDMPEB_CHECK(m >= 0 && n >= 0 && k >= 0);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    scale_c(m, n, c, ldc, beta);
    return;
  }

  // One branch per call picks the microtile set; the blocking and the
  // row-block parallel split are backend-independent, so the per-element
  // accumulation order stays fixed for any SDMPEB_THREADS in both backends.
  const KernelSet ks = active_kernels();

  auto& caller_arena = WorkspaceArena::tls();
  WorkspaceArena::Scope scope(caller_arena);
  const auto nc_padded =
      std::min<std::int64_t>(kNc, (n + ks.nr - 1) / ks.nr * ks.nr);
  float* bp = caller_arena.floats(std::min(kKc, k) * nc_padded);
  const auto mc_blocks = (m + kMc - 1) / kMc;

  for (std::int64_t jc = 0; jc < n; jc += kNc) {
    const auto nb = std::min(kNc, n - jc);
    for (std::int64_t pc = 0; pc < k; pc += kKc) {
      const auto kb = std::min(kKc, k - pc);
      const bool first_panel = pc == 0;
      // The B panel is packed once per (jc, pc) and shared read-only by all
      // row-block tasks; the parallel_for boundary publishes it.
      ks.pack_b(b, ldb, trans_b, pc, kb, jc, nb, bp);
      // Split over kMc row blocks only — each C element belongs to exactly
      // one task, so the per-element accumulation order is thread-count
      // independent.
      parallel::parallel_for(
          0, mc_blocks, 1, [&](std::int64_t blk0, std::int64_t blk1) {
            auto& arena = WorkspaceArena::tls();
            WorkspaceArena::Scope worker_scope(arena);
            float* ap = arena.floats(kMc * kb);
            for (std::int64_t blk = blk0; blk < blk1; ++blk) {
              const auto i0 = blk * kMc;
              const auto mb = std::min(kMc, m - i0);
              pack_a(a, lda, trans_a, i0, mb, pc, kb, ap);
              for (std::int64_t jr = 0; jr < nb; jr += ks.nr)
                for (std::int64_t ir = 0; ir < mb; ir += kMr)
                  ks.tile(kb, ap + ir * kb, bp + jr * kb,
                          c + (i0 + ir) * ldc + jc + jr, ldc,
                          std::min(kMr, mb - ir), std::min(ks.nr, nb - jr),
                          beta, first_panel);
            }
          });
    }
  }
}

}  // namespace

void gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
          std::int64_t lda, bool trans_a, const float* b, std::int64_t ldb,
          bool trans_b, float* c, std::int64_t ldc, float beta) {
  if (!obs::trace_enabled()) {
    // Zero-instrumentation fast path: one predicted-taken branch.
    run_packed(m, n, k, a, lda, trans_a, b, ldb, trans_b, c, ldc, beta);
    return;
  }

  const auto flops = static_cast<std::uint64_t>(2) *
                     static_cast<std::uint64_t>(m) *
                     static_cast<std::uint64_t>(n) *
                     static_cast<std::uint64_t>(k);
  SDMPEB_SPAN("gemm", "flops", static_cast<std::int64_t>(flops));
  const std::uint64_t t0 = obs::now_ns();
  run_packed(m, n, k, a, lda, trans_a, b, ldb, trans_b, c, ldc, beta);
  const std::uint64_t dt_ns = obs::now_ns() - t0;

  static obs::Counter& calls = obs::counter("gemm.calls");
  static obs::Counter& total_flops = obs::counter("gemm.flops");
  static obs::Counter& total_ns = obs::counter("gemm.time_ns");
  static obs::Histogram& call_gflops = obs::histogram(
      "gemm.call_gflops", {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  // Per-ISA throughput splits.
  static obs::Histogram& call_gflops_scalar = obs::histogram(
      "gemm.call_gflops.scalar", {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  static obs::Histogram& call_gflops_avx2 = obs::histogram(
      "gemm.call_gflops.avx2",
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
  calls.add(1);
  total_flops.add(flops);
  total_ns.add(dt_ns);
  if (dt_ns > 0 && flops > 0) {
    const double gflops =
        static_cast<double>(flops) / static_cast<double>(dt_ns);
    call_gflops.add(gflops);
    (simd::active() == simd::Isa::kAvx2 ? call_gflops_avx2
                                        : call_gflops_scalar)
        .add(gflops);
  }
}

}  // namespace sdmpeb::gemm

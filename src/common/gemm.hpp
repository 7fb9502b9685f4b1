#pragma once

#include <cstdint>

namespace sdmpeb::gemm {

/// Single-precision dense matrix multiply — the one dense engine behind
/// matmul and the im2col-lowered convolutions: a cache-blocked,
/// register-tiled, panel-packed GEMM (Mc/Kc/Nc blocking, kMr x kNr
/// microkernel written for the autovectorizer).
///
/// Exactness contract: every output element accumulates along k in
/// ascending order through a single float accumulator chain, and this
/// translation unit is compiled with -ffp-contract=off — so, under the
/// scalar kernel backend, results are BITWISE IDENTICAL to the plain
/// three-loop reference in tests/oracle.cpp, for any thread count. See
/// DESIGN.md §8.
///
/// The driver dispatches its microtile on the runtime SIMD backend
/// (common/simd.hpp): the AVX2 backend runs a 6x16 FMA tile that fuses each
/// multiply-add, so agreement with the reference becomes a tolerance
/// comparison there, while results remain bitwise deterministic across
/// thread counts within the backend. SDMPEB_BACKEND=scalar restores the
/// full bitwise contract. See DESIGN.md §11.

// Blocking parameters (shared with the grain heuristics of callers: one
// parallel task covers one kMc row block, never less).
inline constexpr std::int64_t kMc = 48;   ///< rows of C per packed A block
inline constexpr std::int64_t kKc = 256;  ///< k extent of one packed panel
inline constexpr std::int64_t kNc = 256;  ///< cols of C per packed B panel
inline constexpr std::int64_t kMr = 6;    ///< microkernel rows
inline constexpr std::int64_t kNr = 8;    ///< microkernel cols

/// C (m x n, leading dimension ldc) = op(a) @ op(b) + beta * C, row-major.
/// op(a) is m x k: a is stored (m x k, lda) or, when trans_a, (k x m, lda);
/// op(b) is k x n likewise. beta == 0 overwrites C (never reads it).
/// Deterministic: parallel work is split over row blocks only, so each
/// output element is owned by one task and its accumulation order is fixed
/// for any SDMPEB_THREADS.
void gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
          std::int64_t lda, bool trans_a, const float* b, std::int64_t ldb,
          bool trans_b, float* c, std::int64_t ldc, float beta = 0.0f);

}  // namespace sdmpeb::gemm

#include "peb/tridiag.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace sdmpeb::peb {

void TridiagFactors::factor(std::span<const double> sub_band,
                            std::span<const double> diag_band,
                            std::span<const double> sup_band) {
  const std::size_t n = diag_band.size();
  SDMPEB_CHECK(n >= 1);
  SDMPEB_CHECK(sub_band.size() == n && sup_band.size() == n);
  c.resize(n);
  denom.resize(n);
  sub.assign(sub_band.begin(), sub_band.end());

  // The elimination arithmetic of the Thomas algorithm, hoisted out of the
  // per-line loop; the pivot checks move here too, once per sweep.
  SDMPEB_CHECK_MSG(std::abs(diag_band[0]) > 0.0,
                   "singular tridiagonal system");
  denom[0] = diag_band[0];
  c[0] = sup_band[0] / diag_band[0];
  for (std::size_t i = 1; i < n; ++i) {
    const double d = diag_band[i] - sub_band[i] * c[i - 1];
    SDMPEB_CHECK_MSG(std::abs(d) > 1e-300, "singular tridiagonal system");
    denom[i] = d;
    c[i] = sup_band[i] / d;
  }
}

void adi_solve_lines(const TridiagFactors& factors, std::int64_t n,
                     double* data, std::int64_t elem_stride,
                     std::int64_t lane_stride, int lanes, double rhs0_add,
                     std::span<double> d_scratch) {
  SDMPEB_CHECK(n >= 1 && lanes >= 1 && lanes <= kAdiMaxLanes);
  SDMPEB_CHECK(static_cast<std::int64_t>(factors.denom.size()) == n);
  SDMPEB_CHECK(static_cast<std::int64_t>(d_scratch.size()) >= lanes * n);
  const double* c = factors.c.data();
  const double* denom = factors.denom.data();
  const double* sub = factors.sub.data();

  // Vector groups first: eight lanes at once while they last, then four.
  int lane = 0;
  for (const int group : {8, 4}) {
    const auto fn = simd::tridiag_lines(group);
    if (!fn) break;
    for (; lanes - lane >= group; lane += group)
      fn(c, denom, sub, n, data + lane * lane_stride, elem_stride,
         lane_stride, rhs0_add, d_scratch.data());
  }

  // Scalar path, one lane at a time: the Thomas substitution against the
  // prefactored coefficients, reading the rhs from the strided grid and
  // writing the clamped solution back in place.
  for (; lane < lanes; ++lane) {
    double* base = data + lane * lane_stride;
    double* d = d_scratch.data();
    d[0] = (base[0] + rhs0_add) / denom[0];
    for (std::int64_t i = 1; i < n; ++i)
      d[i] = (base[i * elem_stride] - sub[i] * d[i - 1]) / denom[i];
    double xnext = d[n - 1];
    base[(n - 1) * elem_stride] = std::max(xnext, 0.0);
    for (std::int64_t i = n - 1; i-- > 0;) {
      xnext = d[i] - c[i] * xnext;
      base[i * elem_stride] = std::max(xnext, 0.0);
    }
  }
}

}  // namespace sdmpeb::peb

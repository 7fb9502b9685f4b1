#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/gemm.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "nn/op_helpers.hpp"
#include "nn/ops.hpp"

namespace sdmpeb::nn::detail {

Tensor matmul_raw(const Tensor& a, const Tensor& b, bool trans_a,
                  bool trans_b) {
  SDMPEB_CHECK(a.rank() == 2 && b.rank() == 2);
  const auto m = trans_a ? a.dim(1) : a.dim(0);
  const auto k = trans_a ? a.dim(0) : a.dim(1);
  const auto kb = trans_b ? b.dim(1) : b.dim(0);
  const auto n = trans_b ? b.dim(0) : b.dim(1);
  SDMPEB_CHECK_MSG(k == kb, "matmul inner dims " << k << " vs " << kb);

  Tensor out(Shape{m, n});
  gemm::gemm(m, n, k, a.raw(), a.dim(1), trans_a, b.raw(), b.dim(1), trans_b,
             out.raw(), n, /*beta=*/0.0f);
  return out;
}

}  // namespace sdmpeb::nn::detail

namespace sdmpeb::nn::ops {

namespace {

using detail::matmul_raw;

void add_maybe_transposed(Tensor& dst, const Tensor& src, bool transpose) {
  if (!transpose) {
    dst += src;
    return;
  }
  const auto rows = src.dim(0);
  const auto cols = src.dim(1);
  SDMPEB_CHECK(dst.dim(0) == cols && dst.dim(1) == rows);
  for (std::int64_t i = 0; i < rows; ++i)
    for (std::int64_t j = 0; j < cols; ++j) dst.at(j, i) += src.at(i, j);
}

}  // namespace

Value matmul(const Value& a, const Value& b, bool trans_a, bool trans_b) {
  SDMPEB_SPAN("matmul");
  Tensor out = matmul_raw(a->value(), b->value(), trans_a, trans_b);
  Value ac = a, bc = b;
  return detail::make_result(
      std::move(out), {a, b}, [ac, bc, trans_a, trans_b](Node& self) {
        SDMPEB_SPAN("matmul.bwd");
        const Tensor& g = self.grad();
        if (ac->requires_grad()) {
          // d(op_a(A)) = G @ op_b(B)^T
          Tensor d_op_a = matmul_raw(g, bc->value(), false, !trans_b);
          add_maybe_transposed(ac->grad(), d_op_a, trans_a);
        }
        if (bc->requires_grad()) {
          // d(op_b(B)) = op_a(A)^T @ G
          Tensor d_op_b = matmul_raw(ac->value(), g, !trans_a, false);
          add_maybe_transposed(bc->grad(), d_op_b, trans_b);
        }
      });
}

Value linear(const Value& x, const Value& w, const Value& bias) {
  SDMPEB_SPAN("linear");
  SDMPEB_CHECK(x->value().rank() == 2 && w->value().rank() == 2);
  SDMPEB_CHECK_MSG(x->value().dim(1) == w->value().dim(0),
                   "linear: x cols " << x->value().dim(1) << " != w rows "
                                     << w->value().dim(0));
  Tensor out = matmul_raw(x->value(), w->value(), false, false);
  const auto rows = out.dim(0);
  const auto cols = out.dim(1);
  if (bias) {
    SDMPEB_CHECK(bias->value().numel() == cols);
    for (std::int64_t i = 0; i < rows; ++i)
      for (std::int64_t j = 0; j < cols; ++j)
        out.at(i, j) += bias->value()[j];
  }
  Value xc = x, wc = w, bc = bias;
  std::vector<Value> parents = {x, w};
  if (bias) parents.push_back(bias);
  return detail::make_result(
      std::move(out), std::move(parents), [xc, wc, bc](Node& self) {
        SDMPEB_SPAN("linear.bwd");
        const Tensor& g = self.grad();
        if (xc->requires_grad())
          xc->grad() += matmul_raw(g, wc->value(), false, true);
        if (wc->requires_grad())
          wc->grad() += matmul_raw(xc->value(), g, true, false);
        if (bc && bc->requires_grad()) {
          Tensor& gb = bc->grad();
          for (std::int64_t i = 0; i < g.dim(0); ++i)
            for (std::int64_t j = 0; j < g.dim(1); ++j)
              gb[j] += g.at(i, j);
        }
      });
}

Value softmax_rows(const Value& x, float tau) {
  SDMPEB_CHECK(x->value().rank() == 2);
  SDMPEB_CHECK(tau > 0.0f);
  const auto rows = x->value().dim(0);
  const auto cols = x->value().dim(1);
  Tensor out(x->value().shape());
  const Tensor& in = x->value();
  parallel::parallel_for(0, rows, 16, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      float row_max = in.at(r, 0);
      for (std::int64_t c = 1; c < cols; ++c)
        row_max = std::max(row_max, in.at(r, c));
      double denom = 0.0;
      for (std::int64_t c = 0; c < cols; ++c) {
        const float e = std::exp((in.at(r, c) - row_max) / tau);
        out.at(r, c) = e;
        denom += e;
      }
      const auto inv = static_cast<float>(1.0 / denom);
      for (std::int64_t c = 0; c < cols; ++c) out.at(r, c) *= inv;
    }
  });
  Value xc = x;
  return detail::make_result(std::move(out), {x}, [xc, tau](Node& self) {
    if (!xc->requires_grad()) return;
    const Tensor& g = self.grad();
    const Tensor& p = self.value();
    Tensor& gx = xc->grad();
    const auto rows = p.dim(0);
    const auto cols = p.dim(1);
    parallel::parallel_for(0, rows, 16, [&](std::int64_t r0, std::int64_t r1) {
      for (std::int64_t r = r0; r < r1; ++r) {
        double dot = 0.0;
        for (std::int64_t c = 0; c < cols; ++c)
          dot += static_cast<double>(g.at(r, c)) * p.at(r, c);
        for (std::int64_t c = 0; c < cols; ++c)
          gx.at(r, c) += p.at(r, c) *
                         (g.at(r, c) - static_cast<float>(dot)) / tau;
      }
    });
  });
}

Value log_softmax_rows(const Value& x, float tau) {
  SDMPEB_CHECK(x->value().rank() == 2);
  SDMPEB_CHECK(tau > 0.0f);
  const auto rows = x->value().dim(0);
  const auto cols = x->value().dim(1);
  Tensor out(x->value().shape());
  for (std::int64_t r = 0; r < rows; ++r) {
    float row_max = x->value().at(r, 0);
    for (std::int64_t c = 1; c < cols; ++c)
      row_max = std::max(row_max, x->value().at(r, c));
    double denom = 0.0;
    for (std::int64_t c = 0; c < cols; ++c)
      denom += std::exp((x->value().at(r, c) - row_max) / tau);
    const auto log_denom = static_cast<float>(std::log(denom));
    for (std::int64_t c = 0; c < cols; ++c)
      out.at(r, c) = (x->value().at(r, c) - row_max) / tau - log_denom;
  }
  Value xc = x;
  return detail::make_result(std::move(out), {x}, [xc, tau](Node& self) {
    if (!xc->requires_grad()) return;
    const Tensor& g = self.grad();
    const Tensor& lsm = self.value();
    Tensor& gx = xc->grad();
    const auto rows = lsm.dim(0);
    const auto cols = lsm.dim(1);
    for (std::int64_t r = 0; r < rows; ++r) {
      double gsum = 0.0;
      for (std::int64_t c = 0; c < cols; ++c) gsum += g.at(r, c);
      for (std::int64_t c = 0; c < cols; ++c)
        gx.at(r, c) +=
            (g.at(r, c) -
             std::exp(lsm.at(r, c)) * static_cast<float>(gsum)) /
            tau;
    }
  });
}

Value layer_norm(const Value& x, const Value& gamma, const Value& beta,
                 float eps) {
  SDMPEB_SPAN("layer_norm");
  SDMPEB_CHECK(x->value().rank() == 2);
  const auto rows = x->value().dim(0);
  const auto cols = x->value().dim(1);
  SDMPEB_CHECK(gamma->value().numel() == cols &&
               beta->value().numel() == cols);

  Tensor out(x->value().shape());
  Tensor x_hat(x->value().shape());
  std::vector<float> inv_sigma(static_cast<std::size_t>(rows));
  {
    const Tensor& in = x->value();
    const Tensor& gv = gamma->value();
    const Tensor& bv = beta->value();
    // Per-row stats + normalize through the dispatched simd kernels: the
    // scalar backend reproduces the historical ascending double sums, the
    // AVX2 backend accumulates in 4 double lanes — rows are independent
    // either way, so the split over rows stays bitwise deterministic.
    parallel::parallel_for(
        0, rows, 16, [&](std::int64_t r0, std::int64_t r1) {
          for (std::int64_t r = r0; r < r1; ++r) {
            const float* in_row = in.raw() + r * cols;
            float mean = 0.0f;
            float inv = 0.0f;
            simd::layer_norm_stats(in_row, cols, eps, &mean, &inv);
            inv_sigma[static_cast<std::size_t>(r)] = inv;
            simd::layer_norm_apply(out.raw() + r * cols,
                                   x_hat.raw() + r * cols, in_row, gv.raw(),
                                   bv.raw(), mean, inv, cols);
          }
        });
  }

  Value xc = x, gc = gamma, bc = beta;
  return detail::make_result(
      std::move(out), {x, gamma, beta},
      [xc, gc, bc, x_hat = std::move(x_hat),
       inv_sigma = std::move(inv_sigma)](Node& self) {
        const Tensor& g = self.grad();
        const auto rows = g.dim(0);
        const auto cols = g.dim(1);
        if (gc->requires_grad() || bc->requires_grad()) {
          for (std::int64_t r = 0; r < rows; ++r) {
            for (std::int64_t c = 0; c < cols; ++c) {
              if (gc->requires_grad())
                gc->grad()[c] += g.at(r, c) * x_hat.at(r, c);
              if (bc->requires_grad()) bc->grad()[c] += g.at(r, c);
            }
          }
        }
        if (!xc->requires_grad()) return;
        Tensor& gx = xc->grad();
        const float* gammap = gc->value().raw();
        parallel::parallel_for(
            0, rows, 16, [&](std::int64_t r0, std::int64_t r1) {
              for (std::int64_t r = r0; r < r1; ++r) {
                const float* g_row = g.raw() + r * cols;
                const float* xhat_row = x_hat.raw() + r * cols;
                double mean_gy = 0.0;
                double mean_gy_xhat = 0.0;
                simd::layer_norm_bwd_sums(g_row, xhat_row, gammap, cols,
                                          &mean_gy, &mean_gy_xhat);
                mean_gy /= static_cast<double>(cols);
                mean_gy_xhat /= static_cast<double>(cols);
                simd::layer_norm_bwd_apply(
                    gx.raw() + r * cols, g_row, xhat_row, gammap,
                    inv_sigma[static_cast<std::size_t>(r)], mean_gy,
                    mean_gy_xhat, cols);
              }
            });
      });
}

}  // namespace sdmpeb::nn::ops

#include <cmath>
#include <memory>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "nn/op_helpers.hpp"
#include "nn/ops.hpp"

namespace sdmpeb::nn::ops {

namespace {

/// Channels per parallel task. Channel recurrences are independent and
/// each runs whole inside one task, so any grain gives the same bits; a
/// fixed one keeps the task count independent of the pool width.
constexpr std::int64_t kChannelGrain = 4;

/// Sequence rows per task when folding the cross-channel dB and dC sums.
constexpr std::int64_t kRowGrain = 256;

/// Raw operand pointers of one scan (see scan() for the Δ forms).
simd::ScanArgs scan_args(const Value& x, const Value& delta,
                         const Value& delta_col, const Value& delta_bias,
                         const Tensor& a_neg, const Value& b, const Value& c,
                         const Value& d_skip) {
  simd::ScanArgs s;
  s.seq_len = x->value().dim(0);
  s.channels = x->value().dim(1);
  s.states = a_neg.dim(1);
  if (delta) {
    s.delta = delta->value().raw();
  } else {
    s.delta_col = delta_col->value().raw();
    s.delta_bias = delta_bias->value().raw();
  }
  s.x = x->value().raw();
  s.a_neg = a_neg.raw();
  s.b = b->value().raw();
  s.c = c->value().raw();
  s.d_skip = d_skip->value().raw();
  return s;
}

// Fused selective scan (see ops.hpp for the recurrence). When some input
// requires a gradient the forward stores the hidden-state trajectory
// (L, C, N), so the backward pass is a single reverse-time adjoint
// recurrence with no per-timestep graph nodes (DESIGN.md §4); inference
// keeps only one state row per channel. `delta` is the (L, C) step-size
// matrix, or null when `delta_col` (L, 1) and `delta_bias` (1, C) give
// Δ = softplus(delta_col + delta_bias) inside the kernel (Eq. 11).
Value scan(const Value& x, const Value& delta, const Value& delta_col,
           const Value& delta_bias, const Value& a_log, const Value& b,
           const Value& c, const Value& d_skip) {
  const Tensor& xv = x->value();
  const Tensor& av = a_log->value();
  const Tensor& bv = b->value();
  const Tensor& cv = c->value();
  const Tensor& skipv = d_skip->value();

  SDMPEB_CHECK(xv.rank() == 2 && av.rank() == 2 && bv.rank() == 2 &&
               cv.rank() == 2);
  const auto seq_len = xv.dim(0);
  const auto channels = xv.dim(1);
  const auto states = av.dim(1);
  if (delta) {
    const Tensor& dv = delta->value();
    SDMPEB_CHECK(dv.rank() == 2 && dv.dim(0) == seq_len &&
                 dv.dim(1) == channels);
  } else {
    const Tensor& colv = delta_col->value();
    SDMPEB_CHECK_MSG(colv.rank() == 2 && colv.dim(0) == seq_len &&
                         colv.dim(1) == 1,
                     "selective_scan: delta column must be (L, 1), got "
                         << colv.shape().to_string());
    const Tensor& biasv = delta_bias->value();
    SDMPEB_CHECK_MSG(biasv.rank() == 2 && biasv.dim(0) == 1 &&
                         biasv.dim(1) == channels,
                     "selective_scan: delta bias must be (1, " << channels
                         << "), got " << biasv.shape().to_string());
  }
  SDMPEB_CHECK(av.dim(0) == channels);
  SDMPEB_CHECK(bv.dim(0) == seq_len && bv.dim(1) == states);
  SDMPEB_CHECK(cv.dim(0) == seq_len && cv.dim(1) == states);
  SDMPEB_CHECK(skipv.numel() == channels);

  // A = -exp(a_log): strictly negative, so exp(delta * A) in (0, 1) and the
  // recurrence is unconditionally stable for positive delta.
  Tensor a_neg(Shape{channels, states});
  for (std::int64_t i = 0; i < a_neg.numel(); ++i)
    a_neg[i] = -std::exp(av[i]);

  std::vector<Value> parents = {x, delta, a_log, b, c, d_skip};
  if (!delta) parents = {x, delta_col, delta_bias, a_log, b, c, d_skip};
  const auto hidden =
      any_requires_grad(parents)
          ? std::make_shared<Tensor>(Shape{seq_len, channels, states})
          : nullptr;

  Tensor out(Shape{seq_len, channels});
  {
    const auto s = scan_args(x, delta, delta_col, delta_bias, a_neg, b, c,
                             d_skip);
    float* ph = hidden ? hidden->raw() : nullptr;
    parallel::parallel_for(
        0, channels, kChannelGrain, [&](std::int64_t c0, std::int64_t c1) {
          auto& arena = WorkspaceArena::tls();
          WorkspaceArena::Scope scope(arena);
          simd::scan_forward(s, c0, c1, arena.floats((c1 - c0) * states),
                             out.raw(), ph);
        });
  }

  return detail::make_result(
      std::move(out), std::move(parents),
      [x, delta, delta_col, delta_bias, a_log, b, c, d_skip, hidden,
       a_neg = std::move(a_neg)](Node& self) {
        const auto s = scan_args(x, delta, delta_col, delta_bias, a_neg, b,
                                 c, d_skip);
        const Tensor& g = self.grad();
        const auto seq_len = s.seq_len;
        const auto channels = s.channels;
        const auto states = s.states;

        const bool need_b = b->requires_grad();
        const bool need_c = c->requires_grad();
        const bool need_col = !delta && delta_col->requires_grad();
        const bool need_bias = !delta && delta_bias->requires_grad();

        simd::ScanGrads grads;
        if (x->requires_grad()) grads.x = x->grad().raw();
        if (a_log->requires_grad()) grads.a_log = a_log->grad().raw();
        if (d_skip->requires_grad()) grads.d_skip = d_skip->grad().raw();
        Tensor d_delta;  // dL/dΔ of the fused form
        if (delta) {
          if (delta->requires_grad()) grads.delta = delta->grad().raw();
        } else if (need_col || need_bias) {
          d_delta = Tensor(Shape{seq_len, channels});
          grads.delta = d_delta.raw();
        }
        Tensor b_terms;
        if (need_b) {
          b_terms = Tensor(Shape{seq_len, channels, states});
          grads.b_terms = b_terms.raw();
        }

        parallel::parallel_for(
            0, channels, kChannelGrain,
            [&](std::int64_t c0, std::int64_t c1) {
              auto& arena = WorkspaceArena::tls();
              WorkspaceArena::Scope scope(arena);
              simd::scan_adjoint(s, c0, c1, hidden->raw(), g.raw(),
                                 arena.floats((c1 - c0) * states), grads);
            });

        // dB and dC sum over channels: fold each row in ascending channel
        // order, the order of the serial recurrence.
        if (need_b || need_c) {
          float* pgb = need_b ? b->grad().raw() : nullptr;
          float* pgc = need_c ? c->grad().raw() : nullptr;
          const float* pbt = b_terms.raw();
          const float* ph = hidden->raw();
          const float* pg = g.raw();
          parallel::parallel_for(
              0, seq_len, kRowGrain, [&](std::int64_t t0, std::int64_t t1) {
                for (std::int64_t t = t0; t < t1; ++t)
                  for (std::int64_t ch = 0; ch < channels; ++ch) {
                    const float dy = pg[t * channels + ch];
                    const auto row = (t * channels + ch) * states;
                    for (std::int64_t n = 0; n < states; ++n) {
                      if (pgc) pgc[t * states + n] += dy * ph[row + n];
                      if (pgb) pgb[t * states + n] += pbt[row + n];
                    }
                  }
              });
        }

        // Fused Δ: back through softplus (G = dΔ·σ(pre)), then the two
        // broadcasts of Eq. 11 as the products the unfused graph ran,
        // G @ 1ᵀ for the column and 1ᵀ @ G for the bias.
        if (need_col || need_bias) {
          for (std::int64_t t = 0; t < seq_len; ++t)
            for (std::int64_t ch = 0; ch < channels; ++ch)
              d_delta[t * channels + ch] *=
                  detail::sigmoid_scalar(s.delta_col[t] + s.delta_bias[ch]);
          if (need_col)
            delta_col->grad() += detail::matmul_raw(
                d_delta, Tensor::full(Shape{1, channels}, 1.0f), false, true);
          if (need_bias)
            delta_bias->grad() += detail::matmul_raw(
                Tensor::full(Shape{seq_len, 1}, 1.0f), d_delta, true, false);
        }
      });
}

}  // namespace

Value selective_scan(const Value& x, const Value& delta, const Value& a_log,
                     const Value& b, const Value& c, const Value& d_skip) {
  return scan(x, delta, Value{}, Value{}, a_log, b, c, d_skip);
}

Value selective_scan(const Value& x, const Value& delta_col,
                     const Value& delta_bias, const Value& a_log,
                     const Value& b, const Value& c, const Value& d_skip) {
  return scan(x, Value{}, delta_col, delta_bias, a_log, b, c, d_skip);
}

}  // namespace sdmpeb::nn::ops

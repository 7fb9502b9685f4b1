#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "nn/op_helpers.hpp"
#include "nn/ops.hpp"

namespace sdmpeb::nn::ops {

namespace {

/// Generic differentiable unary op: out[i] = fwd(x[i]); the backward closure
/// receives the saved output and input values and must return dOut/dIn per
/// element.
Value unary_op(const Value& x, float (*fwd)(float),
               float (*dfdx)(float /*in*/, float /*out*/)) {
  const Tensor& in = x->value();
  Tensor out = in;
  parallel::parallel_for(0, out.numel(), parallel::kFlatGrain,
                         [&](std::int64_t i0, std::int64_t i1) {
                           for (std::int64_t i = i0; i < i1; ++i)
                             out[i] = fwd(in[i]);
                         });
  Value xc = x;
  return detail::make_result(
      std::move(out), {x}, [xc, dfdx](Node& self) {
        if (!xc->requires_grad()) return;
        Tensor& gx = xc->grad();
        const Tensor& g = self.grad();
        const Tensor& in = xc->value();
        const Tensor& saved_out = self.value();
        parallel::parallel_for(0, g.numel(), parallel::kFlatGrain,
                               [&](std::int64_t i0, std::int64_t i1) {
                                 for (std::int64_t i = i0; i < i1; ++i)
                                   gx[i] += g[i] * dfdx(in[i], saved_out[i]);
                               });
      });
}

using detail::sigmoid_scalar;

}  // namespace

Value add(const Value& a, const Value& b) {
  SDMPEB_CHECK(a->value().shape() == b->value().shape());
  Tensor out = a->value();
  out += b->value();
  Value ac = a, bc = b;
  return detail::make_result(std::move(out), {a, b}, [ac, bc](Node& self) {
    const Tensor& g = self.grad();
    if (ac->requires_grad()) ac->grad() += g;
    if (bc->requires_grad()) bc->grad() += g;
  });
}

Value sub(const Value& a, const Value& b) {
  SDMPEB_CHECK(a->value().shape() == b->value().shape());
  Tensor out = a->value();
  out -= b->value();
  Value ac = a, bc = b;
  return detail::make_result(std::move(out), {a, b}, [ac, bc](Node& self) {
    const Tensor& g = self.grad();
    if (ac->requires_grad()) ac->grad() += g;
    if (bc->requires_grad()) bc->grad() -= g;
  });
}

Value mul(const Value& a, const Value& b) {
  SDMPEB_CHECK(a->value().shape() == b->value().shape());
  Tensor out = a->value();
  out *= b->value();
  Value ac = a, bc = b;
  return detail::make_result(std::move(out), {a, b}, [ac, bc](Node& self) {
    const Tensor& g = self.grad();
    if (ac->requires_grad()) {
      Tensor& ga = ac->grad();
      const Tensor& bv = bc->value();
      parallel::parallel_for(0, g.numel(), parallel::kFlatGrain,
                             [&](std::int64_t i0, std::int64_t i1) {
                               simd::vmul_add(ga.raw() + i0, g.raw() + i0,
                                              bv.raw() + i0, i1 - i0);
                             });
    }
    if (bc->requires_grad()) {
      Tensor& gb = bc->grad();
      const Tensor& av = ac->value();
      parallel::parallel_for(0, g.numel(), parallel::kFlatGrain,
                             [&](std::int64_t i0, std::int64_t i1) {
                               simd::vmul_add(gb.raw() + i0, g.raw() + i0,
                                              av.raw() + i0, i1 - i0);
                             });
    }
  });
}

Value add_scalar(const Value& a, float s) {
  Tensor out = a->value();
  out += s;
  Value ac = a;
  return detail::make_result(std::move(out), {a}, [ac](Node& self) {
    if (ac->requires_grad()) ac->grad() += self.grad();
  });
}

Value mul_scalar(const Value& a, float s) {
  Tensor out = a->value();
  out *= s;
  Value ac = a;
  return detail::make_result(std::move(out), {a}, [ac, s](Node& self) {
    if (!ac->requires_grad()) return;
    Tensor& ga = ac->grad();
    const Tensor& g = self.grad();
    parallel::parallel_for(0, g.numel(), parallel::kFlatGrain,
                           [&](std::int64_t i0, std::int64_t i1) {
                             simd::vaxpy(ga.raw() + i0, g.raw() + i0, s,
                                         i1 - i0);
                           });
  });
}

Value relu(const Value& x) {
  const Tensor& in = x->value();
  Tensor out(in.shape());
  parallel::parallel_for(0, out.numel(), parallel::kFlatGrain,
                         [&](std::int64_t i0, std::int64_t i1) {
                           simd::vrelu(out.raw() + i0, in.raw() + i0,
                                       i1 - i0);
                         });
  Value xc = x;
  return detail::make_result(std::move(out), {x}, [xc](Node& self) {
    if (!xc->requires_grad()) return;
    Tensor& gx = xc->grad();
    const Tensor& g = self.grad();
    const Tensor& in = xc->value();
    parallel::parallel_for(0, g.numel(), parallel::kFlatGrain,
                           [&](std::int64_t i0, std::int64_t i1) {
                             simd::vrelu_bwd(gx.raw() + i0, g.raw() + i0,
                                             in.raw() + i0, i1 - i0);
                           });
  });
}

Value leaky_relu(const Value& x, float negative_slope) {
  const Tensor& in = x->value();
  Tensor out(in.shape());
  parallel::parallel_for(0, out.numel(), parallel::kFlatGrain,
                         [&](std::int64_t i0, std::int64_t i1) {
                           simd::vleaky_relu(out.raw() + i0, in.raw() + i0,
                                             negative_slope, i1 - i0);
                         });
  Value xc = x;
  return detail::make_result(
      std::move(out), {x}, [xc, negative_slope](Node& self) {
        if (!xc->requires_grad()) return;
        Tensor& gx = xc->grad();
        const Tensor& g = self.grad();
        const Tensor& in = xc->value();
        parallel::parallel_for(
            0, g.numel(), parallel::kFlatGrain,
            [&](std::int64_t i0, std::int64_t i1) {
              simd::vleaky_relu_bwd(gx.raw() + i0, g.raw() + i0,
                                    in.raw() + i0, negative_slope, i1 - i0);
            });
      });
}

Value silu(const Value& x) {
  return unary_op(
      x, [](float v) { return v * sigmoid_scalar(v); },
      [](float in, float) {
        const float s = sigmoid_scalar(in);
        return s * (1.0f + in * (1.0f - s));
      });
}

Value sigmoid(const Value& x) {
  return unary_op(
      x, [](float v) { return sigmoid_scalar(v); },
      [](float, float out) { return out * (1.0f - out); });
}

Value gelu(const Value& x) {
  return unary_op(
      x,
      [](float v) {
        const float c = 0.7978845608028654f;  // sqrt(2/pi)
        return 0.5f * v *
               (1.0f + std::tanh(c * (v + 0.044715f * v * v * v)));
      },
      [](float in, float) {
        const float c = 0.7978845608028654f;
        const float u = c * (in + 0.044715f * in * in * in);
        const float t = std::tanh(u);
        const float du = c * (1.0f + 3.0f * 0.044715f * in * in);
        return 0.5f * (1.0f + t) + 0.5f * in * (1.0f - t * t) * du;
      });
}

Value softplus(const Value& x) {
  return unary_op(
      x, &simd::softplus, [](float in, float) { return sigmoid_scalar(in); });
}

Value exp(const Value& x) {
  return unary_op(
      x, [](float v) { return std::exp(v); },
      [](float, float out) { return out; });
}

Value log(const Value& x) {
  for (std::int64_t i = 0; i < x->value().numel(); ++i)
    SDMPEB_CHECK_MSG(x->value()[i] > 0.0f, "log of non-positive value");
  return unary_op(
      x, [](float v) { return std::log(v); },
      [](float in, float) { return 1.0f / in; });
}

Value square(const Value& x) {
  return unary_op(
      x, [](float v) { return v * v; },
      [](float in, float) { return 2.0f * in; });
}

Value abs_pow(const Value& x, float p) {
  SDMPEB_CHECK(p > 0.0f);
  const Tensor& in = x->value();
  Tensor out = in.map([p](float v) { return std::pow(std::abs(v), p); });
  Value xc = x;
  return detail::make_result(std::move(out), {x}, [xc, p](Node& self) {
    if (!xc->requires_grad()) return;
    Tensor& gx = xc->grad();
    const Tensor& g = self.grad();
    const Tensor& in = xc->value();
    parallel::parallel_for(
        0, g.numel(), parallel::kFlatGrain,
        [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) {
            const float v = in[i];
            if (v == 0.0f) continue;  // subgradient 0 at the kink
            const float sign = v > 0.0f ? 1.0f : -1.0f;
            gx[i] += g[i] * p * std::pow(std::abs(v), p - 1.0f) * sign;
          }
        });
  });
}

}  // namespace sdmpeb::nn::ops

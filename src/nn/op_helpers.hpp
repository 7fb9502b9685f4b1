#pragma once

#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "nn/value.hpp"

namespace sdmpeb::nn::detail {

/// Raw (non-autograd) matrix product with optional transposed operand
/// layouts: computes op(a) @ op(b) where op transposes the stored matrix
/// when the flag is set. All four variants run on the shared packed GEMM
/// core (common/gemm.hpp).
Tensor matmul_raw(const Tensor& a, const Tensor& b, bool trans_a,
                  bool trans_b);

/// Logistic sigmoid on one value (also softplus's derivative).
inline float sigmoid_scalar(float v) { return 1.0f / (1.0f + std::exp(-v)); }

/// Shared op plumbing: wraps the forward result, and wires the backward
/// closure only when some input actually tracks gradients (constant-folded
/// subgraphs stay closure-free).
inline Value make_result(Tensor out, std::vector<Value> parents,
                         std::function<void(Node&)> backward_fn) {
  const bool needs_grad = any_requires_grad(parents);
  Value result = make_value(std::move(out), needs_grad);
  if (needs_grad)
    result->set_edges(std::move(parents), std::move(backward_fn));
  return result;
}

}  // namespace sdmpeb::nn::detail

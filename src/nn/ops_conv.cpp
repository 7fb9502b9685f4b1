#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/gemm.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "nn/op_helpers.hpp"
#include "nn/ops.hpp"

// Convolution kernels. Shapes are validated once per op call; the inner
// loops use raw row-major indexing (the bounds-checked Tensor::at() is far
// too slow at O(N·k^2..k^3) access counts — these loops dominate training
// time).
//
// Dense convolutions (conv2d_per_depth, conv_transpose2d_per_depth, conv3d)
// are lowered onto the packed GEMM core (common/gemm.hpp) via im2col /
// col2im, with all scratch (patch matrices, per-chunk gradient partials)
// served by the WorkspaceArena so steady-state training never touches the
// allocator. The direct-loop reference they are checked against lives with
// the tests (tests/oracle.cpp, DESIGN.md §8). Depthwise convolutions stay
// direct (a gemm over a 1-channel patch matrix would be a dot product) but
// hoist their bounds checks out of the interior so the inner loops are
// branch-free.
//
// Parallelisation (see common/parallel.hpp): forward passes split over
// independent depth / output-depth slices, so every output element is
// written by exactly one chunk. Backward passes split over an axis that
// keeps the input gradient writes disjoint; gradient accumulators shared
// across that axis (weight and bias grads) go through per-chunk partial
// buffers folded in chunk order, which keeps results bitwise identical for
// any thread count.

namespace sdmpeb::nn::ops {

namespace {

std::int64_t conv_out_dim(std::int64_t in, std::int64_t kernel,
                          std::int64_t stride, std::int64_t pad) {
  const auto out = (in + 2 * pad - kernel) / stride + 1;
  SDMPEB_CHECK_MSG(out > 0, "convolution output dim <= 0 (in=" << in
                            << " k=" << kernel << " s=" << stride
                            << " p=" << pad << ")");
  return out;
}

/// Fold per-chunk partial gradient buffers into the destination in
/// ascending chunk order (the deterministic combination tree): parts is
/// `chunks` consecutive `size`-element arena slices.
void fold_flat_partials(float* dst, const float* parts, std::int64_t chunks,
                        std::int64_t size) {
  for (std::int64_t c = 0; c < chunks; ++c) {
    const float* part = parts + c * size;
    for (std::int64_t i = 0; i < size; ++i) dst[i] += part[i];
  }
}

// ---------------------------------------------------------------------------
// im2col / col2im. One geometry serves every lowering: a stack of
// `channels` image planes (plane ch at im + ch * chan_stride, each
// im_h x im_w) and a grid_h x grid_w patch grid, where patch (gh, gw)
// covers image rows gh*stride - pad + [0, kh) etc. The patch matrix is
//   cols[((ch*kh + i)*kw + j) * grid_h*grid_w + gh*grid_w + gw]
//     = im[ch][gh*stride - pad + i][gw*stride - pad + j]   (0 outside).
// conv2d uses grid = output dims (gather); conv_transpose uses grid =
// input dims against its output image (scatter via col2im). Out-of-range
// columns are hoisted to prologue/epilogue fills so the copy loop is
// branch-free (and a memcpy when stride == 1).
// ---------------------------------------------------------------------------

/// Valid gw range [lo, hi) for kernel column j: 0 <= gw*stride - pad + j
/// < im_w, clamped to [0, grid_w).
std::pair<std::int64_t, std::int64_t> valid_grid_range(
    std::int64_t grid_w, std::int64_t im_w, std::int64_t stride,
    std::int64_t pad, std::int64_t j) {
  const auto lo =
      std::clamp<std::int64_t>((pad - j + stride - 1) / stride, 0, grid_w);
  const auto hi =
      std::clamp<std::int64_t>((im_w - 1 + pad - j) / stride + 1, lo, grid_w);
  return {lo, hi};
}

void im2col_2d(const float* im, std::int64_t channels,
               std::int64_t chan_stride, std::int64_t im_h, std::int64_t im_w,
               std::int64_t kh, std::int64_t kw, std::int64_t stride,
               std::int64_t pad, std::int64_t grid_h, std::int64_t grid_w,
               float* cols) {
  const auto grid = grid_h * grid_w;
  for (std::int64_t ch = 0; ch < channels; ++ch) {
    const float* src = im + ch * chan_stride;
    for (std::int64_t i = 0; i < kh; ++i) {
      for (std::int64_t j = 0; j < kw; ++j) {
        float* dst = cols + ((ch * kh + i) * kw + j) * grid;
        const auto [gw_lo, gw_hi] =
            valid_grid_range(grid_w, im_w, stride, pad, j);
        for (std::int64_t gh = 0; gh < grid_h; ++gh) {
          const auto ih = gh * stride - pad + i;
          float* drow = dst + gh * grid_w;
          if (ih < 0 || ih >= im_h) {
            std::fill(drow, drow + grid_w, 0.0f);
            continue;
          }
          const float* srow = src + ih * im_w;
          std::fill(drow, drow + gw_lo, 0.0f);
          if (stride == 1) {
            std::memcpy(drow + gw_lo, srow + gw_lo - pad + j,
                        static_cast<std::size_t>(gw_hi - gw_lo) *
                            sizeof(float));
          } else {
            for (std::int64_t gw = gw_lo; gw < gw_hi; ++gw)
              drow[gw] = srow[gw * stride - pad + j];
          }
          std::fill(drow + gw_hi, drow + grid_w, 0.0f);
        }
      }
    }
  }
}

/// Scatter-add inverse of im2col_2d: im[...] += cols[...], traversed in a
/// fixed ascending (ch, i, j, gh, gw) order so results are reproducible.
void col2im_2d(float* im, std::int64_t channels, std::int64_t chan_stride,
               std::int64_t im_h, std::int64_t im_w, std::int64_t kh,
               std::int64_t kw, std::int64_t stride, std::int64_t pad,
               std::int64_t grid_h, std::int64_t grid_w, const float* cols) {
  const auto grid = grid_h * grid_w;
  for (std::int64_t ch = 0; ch < channels; ++ch) {
    float* dst = im + ch * chan_stride;
    for (std::int64_t i = 0; i < kh; ++i) {
      for (std::int64_t j = 0; j < kw; ++j) {
        const float* src = cols + ((ch * kh + i) * kw + j) * grid;
        const auto [gw_lo, gw_hi] =
            valid_grid_range(grid_w, im_w, stride, pad, j);
        for (std::int64_t gh = 0; gh < grid_h; ++gh) {
          const auto ih = gh * stride - pad + i;
          if (ih < 0 || ih >= im_h) continue;
          const float* srow = src + gh * grid_w;
          float* drow = dst + ih * im_w;
          if (stride == 1) {
            float* d = drow - pad + j;
            for (std::int64_t gw = gw_lo; gw < gw_hi; ++gw) d[gw] += srow[gw];
          } else {
            for (std::int64_t gw = gw_lo; gw < gw_hi; ++gw)
              drow[gw * stride - pad + j] += srow[gw];
          }
        }
      }
    }
  }
}

/// conv3d patch matrix for ONE output-depth slice od: rows are
/// (ch, a, i, j) with input plane id = od*stride - pad + a; out-of-range
/// planes contribute zero rows. Delegates each (ch, a) plane to im2col_2d.
void im2col_3d_slice(const float* im, std::int64_t channels, std::int64_t din,
                     std::int64_t im_h, std::int64_t im_w, std::int64_t kd,
                     std::int64_t kh, std::int64_t kw, std::int64_t stride,
                     std::int64_t pad, std::int64_t od, std::int64_t grid_h,
                     std::int64_t grid_w, float* cols) {
  const auto grid = grid_h * grid_w;
  const auto block = kh * kw * grid;
  for (std::int64_t ch = 0; ch < channels; ++ch) {
    for (std::int64_t a = 0; a < kd; ++a) {
      float* dst = cols + (ch * kd + a) * block;
      const auto id = od * stride - pad + a;
      if (id < 0 || id >= din) {
        std::fill(dst, dst + block, 0.0f);
        continue;
      }
      im2col_2d(im + (ch * din + id) * im_h * im_w, 1, 0, im_h, im_w, kh, kw,
                stride, pad, grid_h, grid_w, dst);
    }
  }
}

/// Scatter-add inverse of im2col_3d_slice (into a full (channels, din,
/// im_h, im_w) gradient volume).
void col2im_3d_slice(float* im, std::int64_t channels, std::int64_t din,
                     std::int64_t im_h, std::int64_t im_w, std::int64_t kd,
                     std::int64_t kh, std::int64_t kw, std::int64_t stride,
                     std::int64_t pad, std::int64_t od, std::int64_t grid_h,
                     std::int64_t grid_w, const float* cols) {
  const auto grid = grid_h * grid_w;
  const auto block = kh * kw * grid;
  for (std::int64_t ch = 0; ch < channels; ++ch) {
    for (std::int64_t a = 0; a < kd; ++a) {
      const auto id = od * stride - pad + a;
      if (id < 0 || id >= din) continue;
      col2im_2d(im + (ch * din + id) * im_h * im_w, 1, 0, im_h, im_w, kh, kw,
                stride, pad, grid_h, grid_w, cols + (ch * kd + a) * block);
    }
  }
}

/// Record the logical im2col patch-matrix footprint a dense conv lowers
/// through.
void note_im2col(std::int64_t im2col_floats) {
  if (!obs::trace_enabled()) return;
  static obs::Counter& bytes = obs::counter("conv.im2col_bytes");
  bytes.add(static_cast<std::uint64_t>(im2col_floats) * sizeof(float));
}

/// Ascending-index float sum of one gradient row (bias partials).
float row_sum(const float* row, std::int64_t n) {
  float acc = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) acc += row[i];
  return acc;
}

}  // namespace

// ===========================================================================
// conv2d_per_depth
// ===========================================================================

namespace {

struct Conv2dDims {
  std::int64_t cin, depth, hin, win, cout, kh, kw, hout, wout, stride, pad;
};

void conv2d_forward_gemm(const Conv2dDims& dims, const float* px,
                         const float* pw, const float* pb, float* po) {
  const auto [cin, depth, hin, win, cout, kh, kw, hout, wout, stride, pad] =
      dims;
  const auto kdim = cin * kh * kw;
  const auto hw = hout * wout;
  // One task per depth slice; slices are output-disjoint, and the nested
  // gemm runs inline on the worker.
  parallel::parallel_for(0, depth, 1, [&](std::int64_t d0, std::int64_t d1) {
    auto& arena = WorkspaceArena::tls();
    WorkspaceArena::Scope scope(arena);
    float* cols = arena.floats(kdim * hw);
    for (std::int64_t d = d0; d < d1; ++d) {
      im2col_2d(px + d * hin * win, cin, depth * hin * win, hin, win, kh, kw,
                stride, pad, hout, wout, cols);
      float* cbase = po + d * hw;  // output row co lives at cbase + co*depth*hw
      if (pb)
        for (std::int64_t co = 0; co < cout; ++co)
          std::fill(cbase + co * depth * hw, cbase + co * depth * hw + hw,
                    pb[co]);
      gemm::gemm(cout, hw, kdim, pw, kdim, false, cols, hw, false, cbase,
                 depth * hw, pb ? 1.0f : 0.0f);
    }
  });
}

void conv2d_backward_gemm(const Conv2dDims& dims, const float* pg,
                          const float* px, const float* pw, float* pgx,
                          float* pgw, float* pgb) {
  const auto [cin, depth, hin, win, cout, kh, kw, hout, wout, stride, pad] =
      dims;
  const bool need_x = pgx != nullptr;
  const bool need_w = pgw != nullptr;
  const bool need_b = pgb != nullptr;
  const auto kdim = cin * kh * kw;
  const auto hw = hout * wout;
  const auto wsize = cout * kdim;
  // Split over depth: x-gradient writes are depth-disjoint; weight and bias
  // grads are shared across depth, so they accumulate into per-chunk
  // partials (caller-arena slices, workers write disjoint slices) folded in
  // chunk order below.
  const auto chunks = parallel::chunk_count(0, depth, 1);
  auto& caller_arena = WorkspaceArena::tls();
  WorkspaceArena::Scope caller_scope(caller_arena);
  float* gw_parts = need_w ? caller_arena.floats(chunks * wsize) : nullptr;
  float* gb_parts = need_b ? caller_arena.floats(chunks * cout) : nullptr;
  parallel::for_chunks(
      0, depth, 1,
      [&](std::int64_t chunk, std::int64_t d0, std::int64_t d1) {
        auto& arena = WorkspaceArena::tls();
        WorkspaceArena::Scope scope(arena);
        float* cols = need_w ? arena.floats(kdim * hw) : nullptr;
        float* dcols = need_x ? arena.floats(kdim * hw) : nullptr;
        float* gwp = need_w ? gw_parts + chunk * wsize : nullptr;
        float* gbp = need_b ? gb_parts + chunk * cout : nullptr;
        if (gwp) std::fill(gwp, gwp + wsize, 0.0f);
        if (gbp) std::fill(gbp, gbp + cout, 0.0f);
        for (std::int64_t d = d0; d < d1; ++d) {
          const float* gbase = pg + d * hw;  // dY row co at gbase + co*depth*hw
          if (need_x) {
            // dcols = W^T @ dY_d, then scatter back to the input geometry.
            gemm::gemm(kdim, hw, cout, pw, kdim, true, gbase, depth * hw,
                       false, dcols, hw, 0.0f);
            col2im_2d(pgx + d * hin * win, cin, depth * hin * win, hin, win,
                      kh, kw, stride, pad, hout, wout, dcols);
          }
          if (need_w) {
            // dW += dY_d @ im2col(x_d)^T.
            im2col_2d(px + d * hin * win, cin, depth * hin * win, hin, win,
                      kh, kw, stride, pad, hout, wout, cols);
            gemm::gemm(cout, kdim, hw, gbase, depth * hw, false, cols, hw,
                       true, gwp, kdim, 1.0f);
          }
          if (need_b)
            for (std::int64_t co = 0; co < cout; ++co)
              gbp[co] += row_sum(gbase + co * depth * hw, hw);
        }
      });
  if (need_w) fold_flat_partials(pgw, gw_parts, chunks, wsize);
  if (need_b) fold_flat_partials(pgb, gb_parts, chunks, cout);
}

}  // namespace

Value conv2d_per_depth(const Value& x, const Value& w, const Value& bias,
                       std::int64_t stride, std::int64_t pad) {
  const Tensor& xv = x->value();
  const Tensor& wv = w->value();
  SDMPEB_CHECK(xv.rank() == 4 && wv.rank() == 4);
  SDMPEB_CHECK(stride >= 1 && pad >= 0);
  Conv2dDims dims;
  dims.cin = xv.dim(0);
  dims.depth = xv.dim(1);
  dims.hin = xv.dim(2);
  dims.win = xv.dim(3);
  dims.cout = wv.dim(0);
  dims.kh = wv.dim(2);
  dims.kw = wv.dim(3);
  dims.stride = stride;
  dims.pad = pad;
  SDMPEB_CHECK_MSG(wv.dim(1) == dims.cin,
                   "conv2d_per_depth: w expects " << wv.dim(1)
                                                  << " in-channels, x has "
                                                  << dims.cin);
  if (bias) SDMPEB_CHECK(bias->value().numel() == dims.cout);
  dims.hout = conv_out_dim(dims.hin, dims.kh, stride, pad);
  dims.wout = conv_out_dim(dims.win, dims.kw, stride, pad);

  Tensor out(Shape{dims.cout, dims.depth, dims.hout, dims.wout});
  {
    SDMPEB_SPAN("conv2d", "flops",
                2 * out.numel() * dims.cin * dims.kh * dims.kw);
    note_im2col(dims.depth * dims.cin * dims.kh * dims.kw * dims.hout *
                dims.wout);
    const float* pb = bias ? bias->value().raw() : nullptr;
    conv2d_forward_gemm(dims, xv.raw(), wv.raw(), pb, out.raw());
  }

  Value xc = x, wc = w, bc = bias;
  std::vector<Value> parents = {x, w};
  if (bias) parents.push_back(bias);
  return detail::make_result(
      std::move(out), std::move(parents), [xc, wc, bc, dims](Node& self) {
        SDMPEB_SPAN("conv2d.bwd");
        const Tensor& g = self.grad();
        const bool need_x = xc->requires_grad();
        const bool need_w = wc->requires_grad();
        const bool need_b = bc && bc->requires_grad();
        float* pgx = need_x ? xc->grad().raw() : nullptr;
        float* pgw = need_w ? wc->grad().raw() : nullptr;
        float* pgb = need_b ? bc->grad().raw() : nullptr;
        conv2d_backward_gemm(dims, g.raw(), xc->value().raw(),
                             wc->value().raw(), pgx, pgw, pgb);
      });
}

// ===========================================================================
// conv_transpose2d_per_depth
// ===========================================================================

namespace {

struct ConvT2dDims {
  std::int64_t cin, depth, hin, win, cout, kh, kw, hout, wout, stride, pad;
};

void convt2d_forward_gemm(const ConvT2dDims& dims, const float* px,
                          const float* pw, float* po) {
  const auto [cin, depth, hin, win, cout, kh, kw, hout, wout, stride, pad] =
      dims;
  const auto kdim = cout * kh * kw;
  const auto hw_in = hin * win;
  // cols = W^T @ x_d maps each input site to its kdim patch contributions;
  // col2im scatters them into the (strided, padded) output geometry. The
  // scatter lands only in depth slice d, so the depth split keeps output
  // writes disjoint.
  parallel::parallel_for(0, depth, 1, [&](std::int64_t d0, std::int64_t d1) {
    auto& arena = WorkspaceArena::tls();
    WorkspaceArena::Scope scope(arena);
    float* cols = arena.floats(kdim * hw_in);
    for (std::int64_t d = d0; d < d1; ++d) {
      gemm::gemm(kdim, hw_in, cin, pw, kdim, true, px + d * hin * win,
                 depth * hin * win, false, cols, hw_in, 0.0f);
      col2im_2d(po + d * hout * wout, cout, depth * hout * wout, hout, wout,
                kh, kw, stride, pad, hin, win, cols);
    }
  });
}

void convt2d_backward_gemm(const ConvT2dDims& dims, const float* pg,
                           const float* px, const float* pw, float* pgx,
                           float* pgw) {
  const auto [cin, depth, hin, win, cout, kh, kw, hout, wout, stride, pad] =
      dims;
  const bool need_x = pgx != nullptr;
  const bool need_w = pgw != nullptr;
  const auto kdim = cout * kh * kw;
  const auto hw_in = hin * win;
  const auto wsize = cin * kdim;
  const auto chunks = parallel::chunk_count(0, depth, 1);
  auto& caller_arena = WorkspaceArena::tls();
  WorkspaceArena::Scope caller_scope(caller_arena);
  float* gw_parts = need_w ? caller_arena.floats(chunks * wsize) : nullptr;
  parallel::for_chunks(
      0, depth, 1,
      [&](std::int64_t chunk, std::int64_t d0, std::int64_t d1) {
        auto& arena = WorkspaceArena::tls();
        WorkspaceArena::Scope scope(arena);
        float* cols = arena.floats(kdim * hw_in);
        float* gwp = need_w ? gw_parts + chunk * wsize : nullptr;
        if (gwp) std::fill(gwp, gwp + wsize, 0.0f);
        for (std::int64_t d = d0; d < d1; ++d) {
          // Transposed conv backward is a plain conv against dY: gather the
          // dY patches once, then dX = W @ cols and dW += x_d @ cols^T.
          im2col_2d(pg + d * hout * wout, cout, depth * hout * wout, hout,
                    wout, kh, kw, stride, pad, hin, win, cols);
          if (need_x)
            gemm::gemm(cin, hw_in, kdim, pw, kdim, false, cols, hw_in, false,
                       pgx + d * hin * win, depth * hin * win, 1.0f);
          if (need_w)
            gemm::gemm(cin, kdim, hw_in, px + d * hin * win, depth * hin * win,
                       false, cols, hw_in, true, gwp, kdim, 1.0f);
        }
      });
  if (need_w) fold_flat_partials(pgw, gw_parts, chunks, wsize);
}

}  // namespace

Value conv_transpose2d_per_depth(const Value& x, const Value& w,
                                 const Value& bias, std::int64_t stride,
                                 std::int64_t pad) {
  const Tensor& xv = x->value();
  const Tensor& wv = w->value();
  SDMPEB_CHECK(xv.rank() == 4 && wv.rank() == 4);
  SDMPEB_CHECK(stride >= 1 && pad >= 0);
  ConvT2dDims dims;
  dims.cin = xv.dim(0);
  dims.depth = xv.dim(1);
  dims.hin = xv.dim(2);
  dims.win = xv.dim(3);
  SDMPEB_CHECK(wv.dim(0) == dims.cin);
  dims.cout = wv.dim(1);
  dims.kh = wv.dim(2);
  dims.kw = wv.dim(3);
  dims.stride = stride;
  dims.pad = pad;
  if (bias) SDMPEB_CHECK(bias->value().numel() == dims.cout);
  dims.hout = (dims.hin - 1) * stride - 2 * pad + dims.kh;
  dims.wout = (dims.win - 1) * stride - 2 * pad + dims.kw;
  SDMPEB_CHECK(dims.hout > 0 && dims.wout > 0);

  Tensor out(Shape{dims.cout, dims.depth, dims.hout, dims.wout});
  {
    SDMPEB_SPAN("convt2d", "flops",
                2 * dims.depth * dims.cin * dims.cout * dims.kh * dims.kw *
                    dims.hin * dims.win);
    note_im2col(dims.depth * dims.cout * dims.kh * dims.kw * dims.hin *
                dims.win);
    float* po = out.raw();
    if (bias) {
      const float* pb = bias->value().raw();
      const auto plane = dims.depth * dims.hout * dims.wout;
      for (std::int64_t co = 0; co < dims.cout; ++co)
        std::fill(po + co * plane, po + (co + 1) * plane, pb[co]);
    }
    convt2d_forward_gemm(dims, xv.raw(), wv.raw(), po);
  }

  Value xc = x, wc = w, bc = bias;
  std::vector<Value> parents = {x, w};
  if (bias) parents.push_back(bias);
  return detail::make_result(
      std::move(out), std::move(parents), [xc, wc, bc, dims](Node& self) {
        SDMPEB_SPAN("convt2d.bwd");
        const Tensor& g = self.grad();
        const bool need_x = xc->requires_grad();
        const bool need_w = wc->requires_grad();
        if (bc && bc->requires_grad()) {
          float* pgb = bc->grad().raw();
          const auto plane = dims.depth * dims.hout * dims.wout;
          const float* pg = g.raw();
          for (std::int64_t co = 0; co < dims.cout; ++co) {
            double acc = 0.0;
            const float* base = pg + co * plane;
            for (std::int64_t i = 0; i < plane; ++i) acc += base[i];
            pgb[co] += static_cast<float>(acc);
          }
        }
        if (!need_x && !need_w) return;
        float* pgx = need_x ? xc->grad().raw() : nullptr;
        float* pgw = need_w ? wc->grad().raw() : nullptr;
        convt2d_backward_gemm(dims, g.raw(), xc->value().raw(),
                              wc->value().raw(), pgx, pgw);
      });
}

// ===========================================================================
// conv3d
// ===========================================================================

namespace {

struct Conv3dDims {
  std::int64_t cin, din, hin, win, cout, kd, kh, kw, dout, hout, wout, stride,
      pad;
};

void conv3d_forward_gemm(const Conv3dDims& dims, const float* px,
                         const float* pw, const float* pb, float* po) {
  const auto [cin, din, hin, win, cout, kd, kh, kw, dout, hout, wout, stride,
              pad] = dims;
  const auto kdim = cin * kd * kh * kw;
  const auto hw = hout * wout;
  // One task per output-depth slice od; slices are output-disjoint.
  parallel::parallel_for(0, dout, 1, [&](std::int64_t o0, std::int64_t o1) {
    auto& arena = WorkspaceArena::tls();
    WorkspaceArena::Scope scope(arena);
    float* cols = arena.floats(kdim * hw);
    for (std::int64_t od = o0; od < o1; ++od) {
      im2col_3d_slice(px, cin, din, hin, win, kd, kh, kw, stride, pad, od,
                      hout, wout, cols);
      float* cbase = po + od * hw;  // output row co at cbase + co*dout*hw
      if (pb)
        for (std::int64_t co = 0; co < cout; ++co)
          std::fill(cbase + co * dout * hw, cbase + co * dout * hw + hw,
                    pb[co]);
      gemm::gemm(cout, hw, kdim, pw, kdim, false, cols, hw, false, cbase,
                 dout * hw, pb ? 1.0f : 0.0f);
    }
  });
}

void conv3d_backward_gemm(const Conv3dDims& dims, const float* pg,
                          const float* px, const float* pw, float* pgx,
                          float* pgw, float* pgb) {
  const auto [cin, din, hin, win, cout, kd, kh, kw, dout, hout, wout, stride,
              pad] = dims;
  const bool need_x = pgx != nullptr;
  const bool need_w = pgw != nullptr;
  const bool need_b = pgb != nullptr;
  const auto kdim = cin * kd * kh * kw;
  const auto hw = hout * wout;
  const auto wsize = cout * kdim;
  const auto xsize = cin * din * hin * win;
  // Split over output depth: every gradient is shared across od (the depth
  // receptive fields overlap), so x, w and bias grads all go through
  // per-chunk partials folded in chunk order.
  const auto chunks = parallel::chunk_count(0, dout, 1);
  auto& caller_arena = WorkspaceArena::tls();
  WorkspaceArena::Scope caller_scope(caller_arena);
  float* gx_parts = need_x ? caller_arena.floats(chunks * xsize) : nullptr;
  float* gw_parts = need_w ? caller_arena.floats(chunks * wsize) : nullptr;
  float* gb_parts = need_b ? caller_arena.floats(chunks * cout) : nullptr;
  parallel::for_chunks(
      0, dout, 1,
      [&](std::int64_t chunk, std::int64_t o0, std::int64_t o1) {
        auto& arena = WorkspaceArena::tls();
        WorkspaceArena::Scope scope(arena);
        float* cols = need_w ? arena.floats(kdim * hw) : nullptr;
        float* dcols = need_x ? arena.floats(kdim * hw) : nullptr;
        float* gxp = need_x ? gx_parts + chunk * xsize : nullptr;
        float* gwp = need_w ? gw_parts + chunk * wsize : nullptr;
        float* gbp = need_b ? gb_parts + chunk * cout : nullptr;
        if (gxp) std::fill(gxp, gxp + xsize, 0.0f);
        if (gwp) std::fill(gwp, gwp + wsize, 0.0f);
        if (gbp) std::fill(gbp, gbp + cout, 0.0f);
        for (std::int64_t od = o0; od < o1; ++od) {
          const float* gbase = pg + od * hw;  // dY row co at gbase + co*dout*hw
          if (need_x) {
            gemm::gemm(kdim, hw, cout, pw, kdim, true, gbase, dout * hw,
                       false, dcols, hw, 0.0f);
            col2im_3d_slice(gxp, cin, din, hin, win, kd, kh, kw, stride, pad,
                            od, hout, wout, dcols);
          }
          if (need_w) {
            im2col_3d_slice(px, cin, din, hin, win, kd, kh, kw, stride, pad,
                            od, hout, wout, cols);
            gemm::gemm(cout, kdim, hw, gbase, dout * hw, false, cols, hw,
                       true, gwp, kdim, 1.0f);
          }
          if (need_b)
            for (std::int64_t co = 0; co < cout; ++co)
              gbp[co] += row_sum(gbase + co * dout * hw, hw);
        }
      });
  if (need_x) fold_flat_partials(pgx, gx_parts, chunks, xsize);
  if (need_w) fold_flat_partials(pgw, gw_parts, chunks, wsize);
  if (need_b) fold_flat_partials(pgb, gb_parts, chunks, cout);
}

}  // namespace

Value conv3d(const Value& x, const Value& w, const Value& bias,
             std::int64_t stride, std::int64_t pad) {
  const Tensor& xv = x->value();
  const Tensor& wv = w->value();
  SDMPEB_CHECK(xv.rank() == 4 && wv.rank() == 5);
  SDMPEB_CHECK(stride >= 1 && pad >= 0);
  Conv3dDims dims;
  dims.cin = xv.dim(0);
  dims.din = xv.dim(1);
  dims.hin = xv.dim(2);
  dims.win = xv.dim(3);
  dims.cout = wv.dim(0);
  dims.kd = wv.dim(2);
  dims.kh = wv.dim(3);
  dims.kw = wv.dim(4);
  dims.stride = stride;
  dims.pad = pad;
  SDMPEB_CHECK(wv.dim(1) == dims.cin);
  if (bias) SDMPEB_CHECK(bias->value().numel() == dims.cout);
  dims.dout = conv_out_dim(dims.din, dims.kd, stride, pad);
  dims.hout = conv_out_dim(dims.hin, dims.kh, stride, pad);
  dims.wout = conv_out_dim(dims.win, dims.kw, stride, pad);

  Tensor out(Shape{dims.cout, dims.dout, dims.hout, dims.wout});
  {
    SDMPEB_SPAN("conv3d", "flops",
                2 * out.numel() * dims.cin * dims.kd * dims.kh * dims.kw);
    note_im2col(dims.cin * dims.kd * dims.kh * dims.kw * dims.dout *
                dims.hout * dims.wout);
    const float* pb = bias ? bias->value().raw() : nullptr;
    conv3d_forward_gemm(dims, xv.raw(), wv.raw(), pb, out.raw());
  }

  Value xc = x, wc = w, bc = bias;
  std::vector<Value> parents = {x, w};
  if (bias) parents.push_back(bias);
  return detail::make_result(
      std::move(out), std::move(parents), [xc, wc, bc, dims](Node& self) {
        SDMPEB_SPAN("conv3d.bwd");
        const Tensor& g = self.grad();
        const bool need_x = xc->requires_grad();
        const bool need_w = wc->requires_grad();
        const bool need_b = bc && bc->requires_grad();
        float* pgx = need_x ? xc->grad().raw() : nullptr;
        float* pgw = need_w ? wc->grad().raw() : nullptr;
        float* pgb = need_b ? bc->grad().raw() : nullptr;
        conv3d_backward_gemm(dims, g.raw(), xc->value().raw(),
                             wc->value().raw(), pgx, pgw, pgb);
      });
}

// ===========================================================================
// Depthwise convolutions: direct loops (no GEMM lowering), with the bounds
// checks hoisted out of the interior loops. The valid kernel ranges depend
// only on the output coordinate, so the (a, i) limits move out of the pixel
// loops and the width loop splits into edge / branch-free-interior / edge
// bands. The interior bands run the dispatched simd kernels
// (common/simd.hpp): the scalar backend keeps the historical
// double-accumulating tap order bit for bit, the AVX2 backend computes 8
// outputs (3-D conv) or 8 channels (1-D conv) per step in float FMA —
// tolerance cross-backend, bitwise within a backend. Edge bands keep their
// scalar bounds-checked loops in all backends.
// ===========================================================================

Value dwconv3d(const Value& x, const Value& w, const Value& bias,
               std::int64_t pad) {
  const Tensor& xv = x->value();
  const Tensor& wv = w->value();
  SDMPEB_CHECK(xv.rank() == 4 && wv.rank() == 4);
  SDMPEB_CHECK(pad >= 0);
  const auto channels = xv.dim(0), din = xv.dim(1), hin = xv.dim(2),
             win = xv.dim(3);
  SDMPEB_CHECK(wv.dim(0) == channels);
  const auto kd = wv.dim(1), kh = wv.dim(2), kw = wv.dim(3);
  if (bias) SDMPEB_CHECK(bias->value().numel() == channels);
  const auto dout = conv_out_dim(din, kd, 1, pad);
  const auto hout = conv_out_dim(hin, kh, 1, pad);
  const auto wout = conv_out_dim(win, kw, 1, pad);

  Tensor out(Shape{channels, dout, hout, wout});
  {
    SDMPEB_SPAN("dwconv3d", "flops", 2 * out.numel() * kd * kh * kw);
    const float* px = xv.raw();
    const float* pw = wv.raw();
    const float* pb = bias ? bias->value().raw() : nullptr;
    float* po = out.raw();
    // j is fully in range for ow in [pad, win - kw + pad]; outside that
    // band the j loop keeps its bounds check.
    const auto ow_lo = std::clamp<std::int64_t>(pad, 0, wout);
    const auto ow_hi = std::clamp(win - kw + pad + 1, ow_lo, wout);
    // Depthwise: everything is channel-disjoint.
    parallel::parallel_for(
        0, channels, 1, [&](std::int64_t c0, std::int64_t c1) {
          for (std::int64_t c = c0; c < c1; ++c) {
            const float b = pb ? pb[c] : 0.0f;
            const float* xch = px + c * din * hin * win;
            const float* wch = pw + c * kd * kh * kw;
            float* och = po + c * dout * hout * wout;
            for (std::int64_t od = 0; od < dout; ++od) {
              const auto a_lo = std::clamp<std::int64_t>(pad - od, 0, kd);
              const auto a_hi = std::clamp(din - od + pad, a_lo, kd);
              for (std::int64_t oh = 0; oh < hout; ++oh) {
                const auto i_lo = std::clamp<std::int64_t>(pad - oh, 0, kh);
                const auto i_hi = std::clamp(hin - oh + pad, i_lo, kh);
                float* orow = och + (od * hout + oh) * wout;
                const auto edge_sum = [&](std::int64_t ow) {
                  double acc = b;
                  for (std::int64_t a = a_lo; a < a_hi; ++a)
                    for (std::int64_t i = i_lo; i < i_hi; ++i) {
                      const float* xrow =
                          xch + ((od - pad + a) * hin + oh - pad + i) * win;
                      const float* wrow = wch + (a * kh + i) * kw;
                      for (std::int64_t j = 0; j < kw; ++j) {
                        const auto iw = ow - pad + j;
                        if (iw < 0 || iw >= win) continue;
                        acc += static_cast<double>(xrow[iw]) * wrow[j];
                      }
                    }
                  return static_cast<float>(acc);
                };
                for (std::int64_t ow = 0; ow < ow_lo; ++ow)
                  orow[ow] = edge_sum(ow);
                simd::dwconv3d_interior_row(orow, ow_lo, ow_hi, b, xch, wch,
                                            od, oh, pad, a_lo, a_hi, i_lo,
                                            i_hi, kh, kw, hin, win);
                for (std::int64_t ow = ow_hi; ow < wout; ++ow)
                  orow[ow] = edge_sum(ow);
              }
            }
          }
        });
  }

  Value xc = x, wc = w, bc = bias;
  std::vector<Value> parents = {x, w};
  if (bias) parents.push_back(bias);
  return detail::make_result(
      std::move(out), std::move(parents), [xc, wc, bc, pad](Node& self) {
        SDMPEB_SPAN("dwconv3d.bwd");
        const Tensor& g = self.grad();
        const Tensor& xv = xc->value();
        const Tensor& wv = wc->value();
        const auto channels = xv.dim(0), din = xv.dim(1), hin = xv.dim(2),
                   win = xv.dim(3);
        const auto kd = wv.dim(1), kh = wv.dim(2), kw = wv.dim(3);
        const auto dout = g.dim(1), hout = g.dim(2), wout = g.dim(3);
        const bool need_x = xc->requires_grad();
        const bool need_w = wc->requires_grad();
        const bool need_b = bc && bc->requires_grad();
        const float* pg = g.raw();
        const float* px = xv.raw();
        const float* pw = wv.raw();
        float* pgx = need_x ? xc->grad().raw() : nullptr;
        float* pgw = need_w ? wc->grad().raw() : nullptr;
        float* pgb = need_b ? bc->grad().raw() : nullptr;
        // All three gradients are channel-disjoint: direct parallel writes.
        parallel::parallel_for(
            0, channels, 1, [&](std::int64_t c0, std::int64_t c1) {
              for (std::int64_t c = c0; c < c1; ++c) {
                const auto xch = c * din * hin * win;
                const auto wch = c * kd * kh * kw;
                const float* gch = pg + c * dout * hout * wout;
                for (std::int64_t od = 0; od < dout; ++od)
                  for (std::int64_t oh = 0; oh < hout; ++oh)
                    for (std::int64_t ow = 0; ow < wout; ++ow) {
                      const float go = gch[(od * hout + oh) * wout + ow];
                      if (go == 0.0f) continue;
                      if (need_b) pgb[c] += go;
                      for (std::int64_t a = 0; a < kd; ++a) {
                        const auto id = od - pad + a;
                        if (id < 0 || id >= din) continue;
                        for (std::int64_t i = 0; i < kh; ++i) {
                          const auto ih = oh - pad + i;
                          if (ih < 0 || ih >= hin) continue;
                          for (std::int64_t j = 0; j < kw; ++j) {
                            const auto iw = ow - pad + j;
                            if (iw < 0 || iw >= win) continue;
                            const auto xi = xch + (id * hin + ih) * win + iw;
                            const auto wi = wch + (a * kh + i) * kw + j;
                            if (need_x) pgx[xi] += go * pw[wi];
                            if (need_w) pgw[wi] += go * px[xi];
                          }
                        }
                      }
                    }
              }
            });
      });
}

Value dwconv1d_seq(const Value& x, const Value& w, const Value& bias) {
  const Tensor& xv = x->value();
  const Tensor& wv = w->value();
  SDMPEB_CHECK(xv.rank() == 2 && wv.rank() == 2);
  const auto rows = xv.dim(0), cols = xv.dim(1);
  SDMPEB_CHECK(wv.dim(0) == cols);
  const auto kernel = wv.dim(1);
  const auto pad = kernel / 2;
  if (bias) SDMPEB_CHECK(bias->value().numel() == cols);

  Tensor out(Shape{rows, cols});
  {
    SDMPEB_SPAN("dwconv1d", "flops", 2 * out.numel() * kernel);
    const float* px = xv.raw();
    const float* pw = wv.raw();
    const float* pb = bias ? bias->value().raw() : nullptr;
    float* po = out.raw();
    // The k bounds check only fires for rows within pad of either end;
    // interior rows run the branch-free dispatched kernel.
    const auto l_lo = std::clamp<std::int64_t>(pad, 0, rows);
    const auto l_hi = std::clamp(rows - kernel + pad + 1, l_lo, rows);
    // The AVX2 row kernel walks 8 channels per step, which wants the
    // weights channel-contiguous per tap: pack the (cols x kernel) weights
    // into a (kernel x cols) transpose once per forward, shared read-only
    // by all row chunks (the parallel_for boundary publishes it).
    auto& caller_arena = WorkspaceArena::tls();
    WorkspaceArena::Scope wt_scope(caller_arena);
    float* wt = nullptr;
    if (simd::active() == simd::Isa::kAvx2) {
      wt = caller_arena.floats(kernel * cols);
      for (std::int64_t c = 0; c < cols; ++c)
        for (std::int64_t k = 0; k < kernel; ++k)
          wt[k * cols + c] = pw[c * kernel + k];
    }
    parallel::parallel_for(0, rows, 64, [&](std::int64_t l0, std::int64_t l1) {
      for (std::int64_t l = l0; l < l1; ++l) {
        const bool interior = l >= l_lo && l < l_hi;
        if (interior) {
          simd::dwconv1d_interior_row(po + l * cols, px + (l - pad) * cols,
                                      pw, wt, pb, cols, kernel);
          continue;
        }
        for (std::int64_t c = 0; c < cols; ++c) {
          double acc = pb ? pb[c] : 0.0f;
          const float* wrow = pw + c * kernel;
          for (std::int64_t k = 0; k < kernel; ++k) {
            const auto ll = l - pad + k;
            if (ll < 0 || ll >= rows) continue;
            acc += static_cast<double>(px[ll * cols + c]) * wrow[k];
          }
          po[l * cols + c] = static_cast<float>(acc);
        }
      }
    });
  }

  Value xc = x, wc = w, bc = bias;
  std::vector<Value> parents = {x, w};
  if (bias) parents.push_back(bias);
  return detail::make_result(
      std::move(out), std::move(parents), [xc, wc, bc](Node& self) {
        SDMPEB_SPAN("dwconv1d.bwd");
        const Tensor& g = self.grad();
        const Tensor& xv = xc->value();
        const Tensor& wv = wc->value();
        const auto rows = xv.dim(0), cols = xv.dim(1);
        const auto kernel = wv.dim(1);
        const auto pad = kernel / 2;
        const bool need_x = xc->requires_grad();
        const bool need_w = wc->requires_grad();
        const bool need_b = bc && bc->requires_grad();
        const float* pg = g.raw();
        const float* px = xv.raw();
        const float* pw = wv.raw();
        float* pgx = need_x ? xc->grad().raw() : nullptr;
        float* pgw = need_w ? wc->grad().raw() : nullptr;
        float* pgb = need_b ? bc->grad().raw() : nullptr;
        // Every access — x, gx, w, gw, bias — is column-disjoint, so the
        // split goes over columns. Per column, rows run in ascending order,
        // matching the serial accumulation exactly.
        parallel::parallel_for(
            0, cols, 8, [&](std::int64_t cb, std::int64_t ce) {
              for (std::int64_t l = 0; l < rows; ++l)
                for (std::int64_t c = cb; c < ce; ++c) {
                  const float go = pg[l * cols + c];
                  if (go == 0.0f) continue;
                  if (need_b) pgb[c] += go;
                  for (std::int64_t k = 0; k < kernel; ++k) {
                    const auto ll = l - pad + k;
                    if (ll < 0 || ll >= rows) continue;
                    if (need_x) pgx[ll * cols + c] += go * pw[c * kernel + k];
                    if (need_w) pgw[c * kernel + k] += go * px[ll * cols + c];
                  }
                }
            });
      });
}

Value upsample_nearest_per_depth(const Value& x, std::int64_t factor) {
  const Tensor& xv = x->value();
  SDMPEB_CHECK(xv.rank() == 4);
  SDMPEB_CHECK(factor >= 1);
  const auto channels = xv.dim(0), depth = xv.dim(1), hin = xv.dim(2),
             win = xv.dim(3);
  Tensor out(Shape{channels, depth, hin * factor, win * factor});
  {
    const float* px = xv.raw();
    float* po = out.raw();
    const auto hout = hin * factor, wout = win * factor;
    parallel::parallel_for(
        0, channels * depth, 4, [&](std::int64_t p0, std::int64_t p1) {
          for (std::int64_t p = p0; p < p1; ++p) {
            const float* src = px + p * hin * win;
            float* dst = po + p * hout * wout;
            for (std::int64_t h = 0; h < hout; ++h) {
              const float* srow = src + (h / factor) * win;
              float* drow = dst + h * wout;
              for (std::int64_t w = 0; w < wout; ++w)
                drow[w] = srow[w / factor];
            }
          }
        });
  }
  Value xc = x;
  return detail::make_result(std::move(out), {x}, [xc, factor](Node& self) {
    if (!xc->requires_grad()) return;
    Tensor& gx = xc->grad();
    const Tensor& g = self.grad();
    const auto channels = gx.dim(0), depth = gx.dim(1), hin = gx.dim(2),
               win = gx.dim(3);
    const auto hout = hin * factor, wout = win * factor;
    const float* pg = g.raw();
    float* pgx = gx.raw();
    // (c, d) planes are disjoint in both g and gx.
    parallel::parallel_for(
        0, channels * depth, 4, [&](std::int64_t p0, std::int64_t p1) {
          for (std::int64_t p = p0; p < p1; ++p) {
            const float* grow_base = pg + p * hout * wout;
            float* dst = pgx + p * hin * win;
            for (std::int64_t h = 0; h < hout; ++h) {
              const float* grow = grow_base + h * wout;
              float* drow = dst + (h / factor) * win;
              for (std::int64_t w = 0; w < wout; ++w)
                drow[w / factor] += grow[w];
            }
          }
        });
  });
}

}  // namespace sdmpeb::nn::ops

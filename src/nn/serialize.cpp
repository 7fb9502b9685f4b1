#include "nn/serialize.hpp"

#include <cstring>

#include "common/ckpt.hpp"
#include "common/error.hpp"

namespace sdmpeb::nn {

namespace {

constexpr char kParamMagic[4] = {'S', 'D', 'M', 'P'};
constexpr char kTrainMagic[4] = {'S', 'D', 'M', 'S'};
constexpr std::int64_t kVersion = 2;

void write_tensor_payload(ckpt::PayloadWriter& out, const Tensor& t) {
  out.i64(static_cast<std::int64_t>(t.rank()));
  for (std::size_t axis = 0; axis < t.rank(); ++axis) out.i64(t.dim(axis));
  out.bytes(t.raw(), static_cast<std::size_t>(t.numel()) * sizeof(float));
}

/// Read one (rank, dims..., data) record into `dst`, enforcing the shape it
/// already has — architecture mismatches must fail loudly, not reinterpret.
void read_tensor_payload(ckpt::PayloadReader& in, Tensor& dst,
                         const char* what, std::size_t index) {
  const auto rank = in.i64();
  SDMPEB_CHECK_MSG(rank >= 0 && rank <= 8,
                   in.path() << ": implausible rank " << rank << " for "
                             << what << " " << index);
  std::vector<std::int64_t> dims;
  for (std::int64_t axis = 0; axis < rank; ++axis) dims.push_back(in.i64());
  const Shape shape(dims);
  SDMPEB_CHECK_MSG(shape == dst.shape(),
                   in.path() << ": " << what << " " << index
                             << " shape mismatch: checkpoint "
                             << shape.to_string() << " vs module "
                             << dst.shape().to_string());
  in.bytes(dst.raw(), static_cast<std::size_t>(dst.numel()) * sizeof(float));
}

void write_parameters_payload(ckpt::PayloadWriter& out,
                              const std::vector<Value>& params) {
  out.i64(static_cast<std::int64_t>(params.size()));
  for (const auto& p : params) write_tensor_payload(out, p->value());
}

void read_parameters_payload(ckpt::PayloadReader& in,
                             const std::vector<Value>& params) {
  const auto count = in.i64();
  SDMPEB_CHECK_MSG(count == static_cast<std::int64_t>(params.size()),
                   in.path() << " has " << count
                             << " parameters, module has " << params.size());
  for (std::size_t pi = 0; pi < params.size(); ++pi)
    read_tensor_payload(in, params[pi]->value(), "parameter", pi);
}

}  // namespace

void save_parameters(const Module& module, const std::string& path) {
  ckpt::PayloadWriter payload;
  write_parameters_payload(payload, module.parameters());
  ckpt::write_container(path, kParamMagic, kVersion, payload.buffer());
}

void load_parameters(Module& module, const std::string& path) {
  auto container = ckpt::read_container(path, kParamMagic, kVersion,
                                        "parameter checkpoint");
  read_parameters_payload(container.payload, module.parameters());
  container.payload.expect_end();
}

void save_train_state(const std::string& path, const Module& module,
                      const Adam& optimizer, const TrainState& state) {
  ckpt::PayloadWriter payload;
  // Section 1: parameters (same layout as an SDMP payload).
  write_parameters_payload(payload, module.parameters());
  // Section 2: optimizer — step count, then first/second moments per param.
  payload.i64(optimizer.step_count());
  for (const auto& m : optimizer.first_moments())
    write_tensor_payload(payload, m);
  for (const auto& v : optimizer.second_moments())
    write_tensor_payload(payload, v);
  // Section 3: RNG stream.
  for (const auto word : state.rng.words) payload.pod(word);
  payload.pod(state.rng.cached_normal);
  payload.pod(state.rng.has_cached_normal);
  // Section 4: trainer cursors and counters.
  payload.i64(state.epoch);
  payload.i64(state.sample_cursor);
  payload.pod(state.epoch_loss);
  payload.pod(state.last_epoch_loss);
  payload.pod(state.lr_scale);
  payload.i64(state.nonfinite_skips);
  payload.i64(state.nonfinite_retries);
  payload.i64(static_cast<std::int64_t>(state.order.size()));
  for (const auto index : state.order) payload.i64(index);
  payload.i64(static_cast<std::int64_t>(state.epoch_losses.size()));
  for (const auto loss : state.epoch_losses) payload.pod(loss);
  ckpt::write_container(path, kTrainMagic, kVersion, payload.buffer());
}

TrainState load_train_state(const std::string& path, Module& module,
                            Adam& optimizer) {
  auto container =
      ckpt::read_container(path, kTrainMagic, kVersion, "training checkpoint");
  SDMPEB_CHECK_MSG(container.version == kVersion,
                   path << ": training checkpoints have no v1 era (version "
                        << container.version << ")");
  auto& in = container.payload;
  const auto params = module.parameters();
  read_parameters_payload(in, params);

  const auto step_count = in.i64();
  SDMPEB_CHECK_MSG(step_count >= 0,
                   path << ": negative optimizer step count " << step_count);
  std::vector<Tensor> m, v;
  m.reserve(params.size());
  v.reserve(params.size());
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Tensor t = Tensor::zeros(params[pi]->value().shape());
    read_tensor_payload(in, t, "first moment", pi);
    m.push_back(std::move(t));
  }
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Tensor t = Tensor::zeros(params[pi]->value().shape());
    read_tensor_payload(in, t, "second moment", pi);
    v.push_back(std::move(t));
  }
  optimizer.restore_state(std::move(m), std::move(v), step_count);

  TrainState state;
  for (auto& word : state.rng.words) word = in.pod<std::uint64_t>();
  state.rng.cached_normal = in.pod<double>();
  state.rng.has_cached_normal = in.pod<std::uint8_t>();
  state.epoch = in.i64();
  state.sample_cursor = in.i64();
  state.epoch_loss = in.pod<double>();
  state.last_epoch_loss = in.pod<double>();
  state.lr_scale = in.pod<double>();
  state.nonfinite_skips = in.i64();
  state.nonfinite_retries = in.i64();
  const auto order_size = in.i64();
  in.expect_array({order_size}, sizeof(std::int64_t));
  state.order.resize(static_cast<std::size_t>(order_size));
  for (auto& index : state.order) index = in.i64();
  const auto losses_size = in.i64();
  in.expect_array({losses_size}, sizeof(double));
  state.epoch_losses.resize(static_cast<std::size_t>(losses_size));
  for (auto& loss : state.epoch_losses) loss = in.pod<double>();
  in.expect_end();
  SDMPEB_CHECK_MSG(state.epoch >= 0 && state.sample_cursor >= 0 &&
                       state.sample_cursor <= order_size,
                   path << ": corrupt trainer cursors (epoch " << state.epoch
                        << ", sample " << state.sample_cursor << ")");
  return state;
}

}  // namespace sdmpeb::nn

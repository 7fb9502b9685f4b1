// sdmpeb_cli — command-line front end for the SDM-PEB library.
//
//   sdmpeb_cli simulate  [--clips N] [--seed S] [--out DIR]
//       run the rigorous pipeline and dump acid/inhibitor volumes + PGMs
//   sdmpeb_cli train     [--clips N] [--epochs E] [--seed S] [--model M]
//                        [--out CKPT]
//       train a surrogate (sdm | deepcnn | tempo | fno | deepeb) and save a
//       checkpoint
//   sdmpeb_cli evaluate  [--clips N] [--seed S] --model M --ckpt CKPT
//       evaluate a checkpoint on the held-out split (Table II columns)
//   sdmpeb_cli serve     --model M --ckpt CKPT [--shape DxHxW] [--queue N]
//                        [--deadline-ms D]
//       serve a frozen checkpoint over a length-prefixed stdin/stdout
//       protocol (serve/protocol.hpp); SIGINT/SIGTERM drains and exits
//
// All runs are deterministic for a given --seed.

#include <unistd.h>

#include <csignal>
#include <signal.h>
#include <cstdio>
#include <cstring>
#include <atomic>
#include <cerrno>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>

#include "common/obs.hpp"
#include "common/trace_export.hpp"
#include "eval/harness.hpp"
#include "io/pgm.hpp"
#include "io/volume_io.hpp"
#include "nn/serialize.hpp"
#include "serve/frozen_model.hpp"
#include "serve/protocol.hpp"
#include "serve/serve.hpp"

using namespace sdmpeb;

namespace {

/// Graceful-shutdown flag: SIGINT/SIGTERM set it (async-signal-safe store),
/// the trainer polls it at optimizer-step boundaries, writes a final
/// checkpoint and returns cleanly.
std::atomic<bool> g_stop_requested{false};

extern "C" void handle_shutdown_signal(int) {
  g_stop_requested.store(true, std::memory_order_relaxed);
}

void install_signal_handlers() {
  // sigaction WITHOUT SA_RESTART: a shutdown signal must interrupt the
  // serve loop's blocking stdin read with EINTR so the stop flag gets
  // polled (std::signal on glibc sets SA_RESTART and the read would just
  // resume). The trainer only polls the flag at step boundaries, so the
  // flag semantics there are unchanged.
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = handle_shutdown_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

struct CliArgs {
  std::string command;
  std::map<std::string, std::string> options;
  std::string error;  ///< set when an option is unknown or has no value

  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : std::atoll(it->second.c_str());
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
};

/// Every option key some command reads: a misspelt or retired option is an
/// error, not a silently ignored no-op.
const std::set<std::string>& known_options() {
  static const std::set<std::string> keys = {
      "accumulation", "bake-seconds", "ckpt", "ckpt-every", "clips",
      "deadline-ms", "epochs", "max-steps", "metrics", "model", "out",
      "perf", "queue", "resume", "scale", "seed", "shape", "state", "trace"};
  return keys;
}

CliArgs parse_args(int argc, char** argv) {
  CliArgs args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc && args.error.empty(); i += 2) {
    const std::string flag = argv[i];
    const std::string key = flag.rfind("--", 0) == 0 ? flag.substr(2) : "";
    if (known_options().count(key) == 0)
      args.error = "unknown option '" + flag + "'";
    else if (i + 1 >= argc)
      args.error = "option '" + flag + "' needs a value";
    else
      args.options[key] = argv[i + 1];
  }
  return args;
}

std::unique_ptr<core::PebNet> make_model(const CliArgs& args, Rng& rng) {
  return serve::make_peb_net(args.get("model", "sdm"),
                             serve::parse_model_scale(args.get("scale", "")),
                             rng);
}

/// Parse "DxHxW" (e.g. "16x64x64") into a rank-3 shape.
Shape parse_shape(const std::string& spec) {
  std::int64_t dims[3] = {0, 0, 0};
  std::istringstream stream(spec);
  char sep = 'x';
  stream >> dims[0] >> sep >> dims[1] >> sep >> dims[2];
  SDMPEB_CHECK_MSG(!stream.fail() && dims[0] > 0 && dims[1] > 0 &&
                       dims[2] > 0,
                   "bad --shape '" << spec << "' (want DxHxW)");
  return Shape{dims[0], dims[1], dims[2]};
}

eval::DatasetConfig dataset_config(const CliArgs& args) {
  auto config = eval::DatasetConfig::small();
  config.clip_count = args.get_int("clips", 6);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 2025));
  config.peb.duration_s =
      static_cast<double>(args.get_int("bake-seconds", 30));
  return config;
}

int cmd_simulate(const CliArgs& args) {
  const auto out_dir = args.get("out", "sdmpeb_out");
  std::filesystem::create_directories(out_dir);
  const auto dataset = eval::build_dataset(dataset_config(args));
  std::int64_t index = 0;
  const auto dump = [&](const eval::ClipSample& sample) {
    const auto stem = out_dir + "/clip" + std::to_string(index++);
    io::save_grid(sample.acid0, stem + "_acid.bin");
    io::save_grid(sample.inhibitor_gt, stem + "_inhibitor.bin");
    io::save_pgm(io::depth_slice(sample.inhibitor_gt,
                                 sample.inhibitor_gt.depth() - 1),
                 stem + "_inhibitor_bottom.pgm", 0.0f, 1.0f);
    std::printf("  %s: %zu contacts, rigorous %.2f s\n", stem.c_str(),
                sample.clip.contacts.size(), sample.rigorous_seconds);
  };
  for (const auto& s : dataset.train) dump(s);
  for (const auto& s : dataset.test) dump(s);
  std::printf("wrote %lld clips to %s\n",
              static_cast<long long>(index), out_dir.c_str());
  return 0;
}

int cmd_train(const CliArgs& args) {
  const auto model_name = args.get("model", "sdm");
  const auto ckpt = args.get("out", model_name + ".ckpt");
  const auto dataset = eval::build_dataset(dataset_config(args));

  install_signal_handlers();
  Rng model_rng(static_cast<std::uint64_t>(args.get_int("seed", 2025)) + 1);
  auto model = make_model(args, model_rng);
  core::TrainConfig train;
  train.epochs = args.get_int("epochs", 20);
  train.max_steps = args.get_int("max-steps", 0);
  train.accumulation = args.get_int("accumulation", 1);
  train.lr0 = 1e-3f;
  train.verbose = true;
  // Fault tolerance: TrainState checkpoints next to the weight checkpoint,
  // written every --ckpt-every steps and on SIGINT/SIGTERM.
  train.checkpoint_path = args.get("state", ckpt + ".state");
  train.checkpoint_every_steps = args.get_int("ckpt-every", 0);
  train.resume_from = args.get("resume", "");
  train.stop_flag = &g_stop_requested;
  bool interrupted = false;
  train.interrupted = &interrupted;
  Rng train_rng(static_cast<std::uint64_t>(args.get_int("seed", 2025)) + 2);
  const double loss = core::train_model(
      *model, eval::to_train_samples(dataset.train), train, train_rng);
  if (interrupted) {
    std::printf(
        "interrupted: training state saved to %s\n"
        "resume with: sdmpeb_cli train --resume %s (same --seed/--clips)\n",
        train.checkpoint_path.c_str(), train.checkpoint_path.c_str());
    return 0;
  }
  nn::save_parameters(*model, ckpt);
  std::printf("trained %s (final loss %.4f), checkpoint: %s\n",
              model->name().c_str(), loss, ckpt.c_str());
  return 0;
}

int cmd_evaluate(const CliArgs& args) {
  const auto model_name = args.get("model", "sdm");
  const auto ckpt = args.get("ckpt", model_name + ".ckpt");
  const auto dataset = eval::build_dataset(dataset_config(args));
  Rng model_rng(static_cast<std::uint64_t>(args.get_int("seed", 2025)) + 1);
  auto model = make_model(args, model_rng);
  nn::load_parameters(*model, ckpt);
  const auto result = eval::evaluate_model(*model, dataset);
  std::printf("%s", eval::format_results_table(
                        {result}, dataset.mean_rigorous_seconds())
                        .c_str());
  return 0;
}

/// Read exactly n bytes from stdin. Returns 1 on success, 0 on clean EOF
/// before the first byte, -1 when a shutdown signal arrived (EINTR path or
/// flag poll). EOF mid-read is a truncated stream and throws — with the
/// length prefix gone there is nothing to resynchronise on.
int read_exact(void* buf, std::size_t n) {
  auto* bytes = static_cast<unsigned char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    if (g_stop_requested.load(std::memory_order_relaxed)) return -1;
    const ssize_t r = ::read(STDIN_FILENO, bytes + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      SDMPEB_CHECK_MSG(got == 0, "serve: stream truncated mid-frame ("
                                     << got << "/" << n << " bytes)");
      return 0;
    }
    if (errno == EINTR) continue;  // re-check the stop flag
    SDMPEB_CHECK_MSG(false, "serve: stdin read failed: "
                                << std::strerror(errno));
  }
  return 1;
}

void write_all(const void* buf, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(buf);
  std::size_t put = 0;
  while (put < n) {
    const ssize_t r = ::write(STDOUT_FILENO, bytes + put, n - put);
    if (r >= 0) {
      put += static_cast<std::size_t>(r);
      continue;
    }
    if (errno == EINTR) continue;
    SDMPEB_CHECK_MSG(false, "serve: stdout write failed: "
                                << std::strerror(errno));
  }
}

int cmd_serve(const CliArgs& args) {
  install_signal_handlers();
  const auto model_name = args.get("model", "sdm");
  const auto ckpt = args.get("ckpt", model_name + ".ckpt");
  // Startup validation: a corrupt / truncated / mismatched checkpoint
  // throws out of the FrozenModel constructor — the server never comes up
  // on a bad artifact and never fails mid-request because of one.
  serve::FrozenModel model(model_name,
                           serve::parse_model_scale(args.get("scale", "")),
                           ckpt, parse_shape(args.get("shape", "16x64x64")));
  serve::ServeConfig config;
  config.queue_capacity = args.get_int("queue", 64);
  config.default_deadline_ms =
      std::atof(args.get("deadline-ms", "1000").c_str());
  serve::ServeRuntime runtime(model, config);

  // Responses come from the batcher thread, rejections from this thread:
  // one mutex keeps wire frames whole.
  std::mutex out_mutex;
  const auto send = [&out_mutex](const serve::ResponseFrame& frame) {
    const std::string payload = serve::encode_response(frame);
    const auto len = static_cast<std::uint32_t>(payload.size());
    std::lock_guard<std::mutex> lock(out_mutex);
    write_all(&len, sizeof(len));
    write_all(payload.data(), payload.size());
  };

  std::uint64_t frames = 0;
  std::uint64_t malformed = 0;
  for (;;) {
    std::uint32_t len = 0;
    const int rl = read_exact(&len, sizeof(len));
    if (rl <= 0) break;  // EOF or shutdown signal: drain below
    // An insane length prefix is unrecoverable garbage (we cannot skip what
    // we cannot measure) — fail fast with a diagnostic.
    SDMPEB_CHECK_MSG(len > 0 && len <= serve::kMaxFrameBytes,
                     "serve: unrecoverable frame length " << len);
    std::string payload(len, '\0');
    const int rp = read_exact(payload.data(), len);
    if (rp < 0) break;
    SDMPEB_CHECK_MSG(rp == 1, "serve: stream truncated mid-frame");
    ++frames;

    serve::RequestFrame request;
    try {
      request = serve::decode_request(payload);
    } catch (const Error& e) {
      // Malformed but measurable: reject this frame, keep serving.
      ++malformed;
      send({0, serve::Status::kInvalid, Tensor(), e.what()});
      continue;
    }
    serve::Request req;
    req.id = request.id;
    req.priority = request.priority;
    req.deadline_ms = static_cast<double>(request.deadline_ms);
    req.acid = std::move(request.acid);
    const std::uint64_t id = request.id;
    const auto admission =
        runtime.submit(std::move(req), [&send](serve::Response response) {
          serve::ResponseFrame frame;
          frame.id = response.id;
          frame.status = response.status;
          if (response.status == serve::Status::kOk)
            frame.label = std::move(response.label);
          else
            frame.error = response.error;
          send(frame);
        });
    if (!admission.accepted)
      send({id, admission.status, Tensor(), admission.reason});
  }

  // Graceful exit (EOF or SIGINT/SIGTERM): admission stops, queued and
  // in-flight work finishes, every accepted response reaches the wire.
  runtime.drain();
  const auto stats = runtime.stats();
  std::fprintf(stderr,
               "serve: %llu frames (%llu malformed), accepted %llu, "
               "completed %llu, expired %llu, shed %llu, rejected %llu, "
               "errors %llu, peak queue %lld\n",
               static_cast<unsigned long long>(frames),
               static_cast<unsigned long long>(malformed),
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.expired),
               static_cast<unsigned long long>(stats.shed),
               static_cast<unsigned long long>(stats.rejected_full +
                                               stats.rejected_draining),
               static_cast<unsigned long long>(stats.errors),
               static_cast<long long>(stats.queue_depth_peak));
  return 0;
}

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: sdmpeb_cli <simulate|train|evaluate|serve> [--key value ...]\n"
      "  common:   --clips N --seed S --bake-seconds T\n"
      "            --scale default|tiny (model scale, sdm only)\n"
      "            --trace PATH   (enable tracing, write Chrome trace JSON)\n"
      "            --metrics PATH (write metrics CSV; implies tracing)\n"
      "            --perf 1       (sample perf counters per span; implies\n"
      "                            tracing; tier via SDMPEB_PERF)\n"
      "            SDMPEB_TRACE=1 enables tracing with default output paths\n"
      "  simulate: --out DIR\n"
      "  train:    --model sdm|deepcnn|tempo|fno|deepeb --epochs E "
      "--out CKPT\n"
      "            --accumulation N (micro-batches per optimizer step)\n"
      "            --ckpt-every N (train-state checkpoint every N steps)\n"
      "            --state PATH   (train-state path, default <out>.state)\n"
      "            --resume PATH  (continue from a train-state checkpoint;\n"
      "                            bitwise identical to the unbroken run)\n"
      "            SIGINT/SIGTERM checkpoint and exit cleanly\n"
      "            --max-steps N  (stop after N optimizer steps,\n"
      "                            checkpointing first)\n"
      "            SDMPEB_FAULTS=site:prob,... deterministic fault "
      "injection\n"
      "  evaluate: --model M --ckpt CKPT\n"
      "  serve:    --model M --ckpt CKPT --shape DxHxW (default 16x64x64)\n"
      "            --queue N --deadline-ms D\n"
      "            length-prefixed request/response frames on stdin/stdout\n"
      "            (serve/protocol.hpp); overload rejects with a reason and\n"
      "            sheds low-priority work; SIGINT/SIGTERM drains then "
      "exits\n");
}

/// Resolve observability outputs: --trace/--metrics force tracing on;
/// SDMPEB_TRACE=1 alone uses default paths under bench_out/. --perf 1
/// additionally samples hardware counters around every span (implies
/// tracing).
struct ObsConfig {
  bool enabled = false;
  std::string trace_path;
  std::string metrics_path;
};

ObsConfig resolve_obs(const CliArgs& args) {
  ObsConfig cfg;
  cfg.trace_path = args.get("trace", "");
  cfg.metrics_path = args.get("metrics", "");
  const std::string perf = args.get("perf", "");
  if (!perf.empty() && perf != "0" && perf != "off") {
    // The perfmon tier is resolved from SDMPEB_PERF on first sample; when
    // the flag is given without the env var, request the default tier
    // before anything probes (mode() caches its first resolution).
    setenv("SDMPEB_PERF", perf.c_str(), /*overwrite=*/0);
    obs::set_perf_spans_enabled(true);
    obs::set_trace_enabled(true);  // counters ride on spans
  }
  if (!cfg.trace_path.empty() || !cfg.metrics_path.empty())
    obs::set_trace_enabled(true);
  cfg.enabled = obs::trace_enabled();
  if (cfg.enabled && cfg.trace_path.empty())
    cfg.trace_path = "bench_out/trace.json";
  if (cfg.enabled && cfg.metrics_path.empty())
    cfg.metrics_path = "bench_out/metrics.csv";
  return cfg;
}

void dump_obs(const ObsConfig& cfg) {
  if (!cfg.enabled) return;
  obs::refresh_derived_metrics();
  const auto parent = std::filesystem::path(cfg.trace_path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  const auto metrics_parent =
      std::filesystem::path(cfg.metrics_path).parent_path();
  if (!metrics_parent.empty())
    std::filesystem::create_directories(metrics_parent);
  if (obs::write_chrome_trace_file(cfg.trace_path)) {
    SDMPEB_LOG(obs::LogLevel::kInfo) << "trace: " << cfg.trace_path;
  }
  if (obs::write_metrics_csv_file(cfg.metrics_path)) {
    SDMPEB_LOG(obs::LogLevel::kInfo) << "metrics: " << cfg.metrics_path;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args.error.empty()) {
    std::fprintf(stderr, "error: %s\n", args.error.c_str());
    print_usage(stderr);
    return 2;
  }
  const auto obs_cfg = resolve_obs(args);
  try {
    int rc = -1;
    if (args.command == "simulate") rc = cmd_simulate(args);
    if (args.command == "train") rc = cmd_train(args);
    if (args.command == "evaluate") rc = cmd_evaluate(args);
    if (args.command == "serve") rc = cmd_serve(args);
    if (rc >= 0) {
      dump_obs(obs_cfg);
      return rc;
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  print_usage(stdout);
  return args.command.empty() ? 1 : 2;
}

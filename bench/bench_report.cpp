// Continuous-benchmark reporter (DESIGN.md §12). Runs a fixed set of hot
// kernels single-threaded, repeats each until the timing distribution is
// stable (or a trial cap), and writes bench_out/report.json in the
// sdmpeb-bench-report/1 schema for scripts/bench_compare.py to diff against
// the checked-in bench/baselines/<backend>.json.
//
// It is the repo's one kernel harness: no external benchmark library and no
// training loops — it is meant to be cheap enough to run on every CI job.
// Thread-count bit-identity is pinned by tests (parallel_test, simd_test);
// the scalar-to-AVX2 speedup is the ratio of the two backend reports.
//
// Noise handling: per kernel we report the median and IQR over trials;
// trials repeat (min kMinTrials, max kMaxTrials) until IQR/median drops
// under kStableRelIqr. bench_compare.py only flags a regression when the
// median shift exceeds both the tolerance band and a multiple of the IQR,
// so one preempted trial cannot fail the gate.
//
// Environment:
//   SDMPEB_BACKEND=scalar|avx2   kernel backend (resolved by simd::active)
//   SDMPEB_PERF=1|hw|sw          annotate kernels with counter medians
//   SDMPEB_BENCH_SLOW=<kernel>   inject ~60% busy-wait into that kernel —
//                                the CI gate's negative test: a compare
//                                against a clean baseline MUST fail.
//
// Usage: bench_report [--out PATH] [--list]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/gemm.hpp"
#include "common/obs.hpp"
#include "common/rng.hpp"
#include "common/parallel.hpp"
#include "common/perfmon.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "nn/ops.hpp"
#include "peb/peb_solver.hpp"
#include "report_json.hpp"

namespace {

using namespace sdmpeb;
namespace nnops = nn::ops;

constexpr int kWarmupRuns = 2;
constexpr int kMinTrials = 7;
constexpr int kMaxTrials = 25;
constexpr double kStableRelIqr = 0.08;

nn::Value random_value(Shape shape, std::uint64_t seed, bool grad = false) {
  Rng rng(seed);
  return nn::make_value(Tensor::uniform(std::move(shape), rng, -1.0f, 1.0f),
                        grad);
}

struct Kernel {
  std::string name;
  double flops;                ///< per run; 0 when not meaningful
  std::function<void()> run;   ///< one timed repetition
};

std::vector<Kernel> kernel_set() {
  std::vector<Kernel> kernels;

  const auto gemm_case = [](const char* name, std::int64_t m, std::int64_t n,
                            std::int64_t k) {
    Rng rng(23);
    auto a = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(m * k));
    auto b = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(k * n));
    auto c = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(m * n));
    for (auto& v : *a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& v : *b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return Kernel{name, 2.0 * static_cast<double>(m) * n * k, [=] {
                    gemm::gemm(m, n, k, a->data(), k, false, b->data(), n,
                               false, c->data(), n, 0.0f);
                  }};
  };
  kernels.push_back(gemm_case("gemm_128", 128, 128, 128));
  kernels.push_back(gemm_case("gemm_256", 256, 256, 256));
  // Lowered 3x3 conv layer shape (cout x hw x cin*kh*kw).
  kernels.push_back(gemm_case("gemm_conv_lowered", 8, 1024, 72));

  {
    auto x = random_value(Shape{8, 16, 32, 32}, 13);
    auto w = random_value(Shape{8, 8, 3, 3, 3}, 14);
    auto b = random_value(Shape{8}, 15);
    kernels.push_back({"conv3d_8c_16x32x32",
                       2.0 * 8 * 14 * 30 * 30 * 8 * 27,
                       [=] { nnops::conv3d(x, w, b, 1, 0); }});
  }
  // The dense 2-D convs at the SDM-PEB shapes of the 16x64x64 grid: the
  // first decoder layer (48 -> 24 channels, 2x upsampling) and the head.
  {
    auto x = random_value(Shape{48, 16, 32, 32}, 16);
    auto w = random_value(Shape{48, 24, 4, 4}, 17);
    auto b = random_value(Shape{24}, 18);
    kernels.push_back({"convt2d_48c_16x32x32",
                       2.0 * 16 * 48 * 24 * 4 * 4 * 32 * 32, [=] {
                         nnops::conv_transpose2d_per_depth(x, w, b, 2, 1);
                       }});
  }
  {
    auto x = random_value(Shape{6, 16, 64, 64}, 24);
    auto w = random_value(Shape{1, 6, 3, 3}, 25);
    auto b = random_value(Shape{1}, 26);
    kernels.push_back({"conv2d_6c_16x64x64", 2.0 * 16 * 64 * 64 * 6 * 9,
                       [=] { nnops::conv2d_per_depth(x, w, b, 1, 1); }});
  }
  {
    auto x = random_value(Shape{16, 16, 32, 32}, 31);
    auto w = random_value(Shape{16, 3, 3, 3}, 32);
    auto b = random_value(Shape{16}, 33);
    kernels.push_back({"dwconv3d_16c_16x32x32",
                       2.0 * 16 * 16 * 32 * 32 * 27,
                       [=] { nnops::dwconv3d(x, w, b, 1); }});
  }
  {
    auto x = random_value(Shape{4096, 32}, 41);
    auto w = random_value(Shape{32, 5}, 42);
    auto b = random_value(Shape{32}, 43);
    kernels.push_back({"dwconv1d_4096x32", 2.0 * 4096 * 32 * 5,
                       [=] { nnops::dwconv1d_seq(x, w, b); }});
  }
  {
    auto dst = std::make_shared<std::vector<float>>(1 << 20, 0.5f);
    auto src = std::make_shared<std::vector<float>>(1 << 20, 0.25f);
    kernels.push_back({"axpy_1m", 2.0 * (1 << 20), [=] {
                         simd::vaxpy(dst->data(), src->data(), 1.0009f,
                                     static_cast<std::int64_t>(dst->size()));
                       }});
  }
  {
    auto x = random_value(Shape{4096, 64}, 51);
    auto gamma = random_value(Shape{64}, 52);
    auto beta = random_value(Shape{64}, 53);
    // ~8 flops per element: mean, variance, normalise, affine.
    kernels.push_back({"layer_norm_4096x64", 8.0 * 4096 * 64,
                       [=] { nnops::layer_norm(x, gamma, beta); }});
  }
  {
    peb::PebParams params;
    auto solver = std::make_shared<peb::PebSolver>(params);
    Rng rng(19);
    Grid3 acid0(16, 64, 64);
    for (auto& v : acid0.data()) v = rng.uniform(0.0, 0.9);
    auto state =
        std::make_shared<peb::PebState>(solver->initial_state(acid0));
    // The second buffer set run() keeps for the whole bake.
    auto scratch = std::make_shared<peb::PebState>();
    // 3 tridiagonal sweeps x ~8 flops/voxel plus the reaction halves.
    kernels.push_back({"peb_step_adi_64", 3.0 * 8.0 * 16 * 64 * 64 +
                                              2.0 * 12.0 * 16 * 64 * 64,
                       [=] { solver->step(*state, *scratch); }});
  }
  {
    const std::int64_t seq = 1024, channels = 32, states = 8;
    auto x = random_value(Shape{seq, channels}, 1);
    auto delta = nnops::softplus(random_value(Shape{seq, channels}, 2));
    auto a_log = random_value(Shape{channels, states}, 3);
    auto b = random_value(Shape{seq, states}, 4);
    auto c = random_value(Shape{seq, states}, 5);
    auto d = random_value(Shape{channels}, 6);
    kernels.push_back({"selective_scan_1024",
                       // per step: decay+update+output over C*N lanes
                       6.0 * seq * channels * states,
                       [=] { nnops::selective_scan(x, delta, a_log, b, c, d); }});
  }
  return kernels;
}

/// Busy-wait used by the SDMPEB_BENCH_SLOW negative test: spins for
/// `seconds` inside the timed region so the slowdown is deterministic-ish
/// and survives any compiler optimisation of the kernel itself.
void busy_wait(double seconds) {
  Timer timer;
  while (timer.seconds() < seconds) {
  }
}

bench::KernelReport measure(const Kernel& kernel, bool slow) {
  for (int i = 0; i < kWarmupRuns; ++i) kernel.run();

  std::vector<double> ms;
  // Per-slot counter deltas across trials (slot-major).
  std::vector<std::vector<double>> counters(
      static_cast<std::size_t>(perfmon::counter_count()));
  double slow_extra_s = 0.0;
  if (slow) {
    Timer probe;
    kernel.run();
    slow_extra_s = 0.6 * probe.seconds();
    // Floor so near-zero-cost kernels still trip a 15% gate decisively.
    if (slow_extra_s < 1e-4) slow_extra_s = 1e-4;
  }

  while (static_cast<int>(ms.size()) < kMaxTrials) {
    perfmon::Sample s0, s1, d;
    const bool have = perfmon::sample(s0);
    Timer timer;
    kernel.run();
    if (slow) busy_wait(slow_extra_s);
    const double trial_ms = timer.seconds() * 1e3;
    if (have && perfmon::sample(s1)) {
      perfmon::delta(s0, s1, d);
      for (int slot = 0; slot < perfmon::counter_count(); ++slot)
        counters[static_cast<std::size_t>(slot)].push_back(
            static_cast<double>(d.v[slot]));
    }
    ms.push_back(trial_ms);
    if (static_cast<int>(ms.size()) >= kMinTrials) {
      const double median = bench::series_median(ms);
      if (median <= 0.0 || bench::series_iqr(ms) <= kStableRelIqr * median)
        break;
    }
  }

  bench::KernelReport report;
  report.name = kernel.name;
  report.median_ms = bench::series_median(ms);
  report.iqr_ms = bench::series_iqr(ms);
  report.min_ms = *std::min_element(ms.begin(), ms.end());
  report.trials = static_cast<int>(ms.size());
  report.flops = kernel.flops;
  for (int slot = 0; slot < perfmon::counter_count(); ++slot) {
    const auto& series = counters[static_cast<std::size_t>(slot)];
    if (!series.empty())
      report.counters.emplace_back(perfmon::counter_name(slot),
                                   bench::series_median(series));
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "bench_out/report.json";
  bool list_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list_only = true;
    } else {
      std::fprintf(stderr, "usage: %s [--out PATH] [--list]\n", argv[0]);
      return 2;
    }
  }

  auto kernels = kernel_set();
  if (list_only) {
    for (const auto& kernel : kernels)
      std::printf("%s\n", kernel.name.c_str());
    return 0;
  }

  // Single-threaded: pool-width variance would swamp the tolerance bands.
  parallel::set_thread_count(1);
  const char* slow_env = std::getenv("SDMPEB_BENCH_SLOW");
  const std::string slow_kernel = slow_env ? slow_env : "";
  if (!slow_kernel.empty())
    std::printf("[bench_report] SDMPEB_BENCH_SLOW=%s (negative-test mode)\n",
                slow_kernel.c_str());
  std::printf("[bench_report] backend %s, perfmon %s\n",
              simd::isa_name(simd::active()),
              perfmon::mode_name(perfmon::mode()));

  bench::ReportWriter writer;
  for (const auto& kernel : kernels) {
    const auto stat = measure(kernel, kernel.name == slow_kernel);
    std::printf(
        "[bench_report] %-22s median %9.3f ms  iqr %7.3f ms  (%d trials)\n",
        stat.name.c_str(), stat.median_ms, stat.iqr_ms, stat.trials);
    writer.add(stat);
  }

  const auto parent = std::filesystem::path(out_path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  writer.save(out_path, 1);
  std::printf("[bench_report] wrote %s\n", out_path.c_str());
  return 0;
}

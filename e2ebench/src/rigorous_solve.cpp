// rigorous_solve: closed loop, one client. Each operation is one
// peb::PebSolver::run of the Table I bake (90 s at dt = 0.1 s, 900 steps)
// on a distinct 16x64x64 acid volume — the repository's stand-in for the
// paper's rigorous S-Litho solve. No nn/ or core/ code runs here.

#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "peb/peb_solver.hpp"

namespace sdmpeb::e2e {

namespace {

constexpr std::int64_t kSize = 64;
/// Inputs generated during set-up; later solves generate theirs between
/// timed windows.
constexpr std::size_t kPool = 32;
constexpr double kBakeSeconds = 90.0;

bool inhibitor_ok(const Grid3& inhibitor) {
  for (const double v : inhibitor.data())
    if (!(v >= 0.0 && v <= 1.0)) return false;  // also rejects NaN
  return true;
}

}  // namespace

void run_rigorous_solve(const Options& options, Report& report) {
  struct Setup {
    std::unique_ptr<AcidStream> stream;
    std::vector<Grid3> inputs;
    std::unique_ptr<peb::PebSolver> solver;
  };
  Setup setup = repeated_setup(report, [&] {
    Setup s;
    s.stream = std::make_unique<AcidStream>(options.seed, kSize, kSize);
    for (std::size_t i = 0; i < kPool; ++i)
      s.inputs.push_back(s.stream->next());
    auto params = eval::DatasetConfig::small().peb;
    params.duration_s = kBakeSeconds;
    s.solver = std::make_unique<peb::PebSolver>(params);
    return s;
  });

  obs::Counter& retries = obs::counter("peb.divergence_retries");
  obs::Counter& steps = obs::counter("peb.steps");      // while tracing
  obs::Counter& lines = obs::counter("peb.adi_lines");  // while tracing
  const std::uint64_t retries0 = retries.value();
  const std::uint64_t steps0 = steps.value();
  const std::uint64_t lines0 = lines.value();

  std::vector<double> latencies;
  SpanTally tally;
  double busy_ms = 0.0;
  std::int64_t voxels = 0;
  for (std::size_t i = 0; busy_ms < options.seconds * 1e3 || i == 0; ++i) {
    const Grid3 input =
        i < setup.inputs.size() ? setup.inputs[i] : setup.stream->next();
    voxels = input.numel();
    if (options.trace) SpanTally::begin_window();
    const std::uint64_t t0 = obs::now_ns();
    const peb::PebState state = setup.solver->run(input);
    const double ms = ms_between(t0, obs::now_ns());
    if (options.trace) tally.end_window(report, "main");
    latencies.push_back(ms);
    busy_ms += ms;
    ++report.attempted;
    if (!inhibitor_ok(state.inhibitor)) ++report.failed;
  }
  report.check(report.failed == 0,
               "every final inhibitor is finite and within [0, 1]");
  const std::uint64_t retried = retries.value() - retries0;
  report.check(retried == 0, "no divergence-guard retries");

  add_closed_loop_metrics(report, latencies);
  if (!options.trace) return;

  add_kernel_metrics(report, tally, report.attempted, busy_ms);
  const auto step_count = static_cast<double>(steps.value() - steps0);
  const double per = std::max(step_count, 1.0);
  report.layer("peb.steps", step_count, "count");
  report.layer("peb.step.ms", tally.get("peb.step").total_ms / per, "ms");
  report.layer("peb.step.self_ms", tally.get("peb.step").self_ms / per, "ms");
  report.layer("peb.reaction.ms", tally.get("peb.reaction").self_ms / per,
               "ms");
  double diffuse_ms = 0.0;
  double sweeps = 0.0;
  const char* const kAxes[] = {"z", "y", "x"};
  for (int axis = 0; axis < 3; ++axis) {
    const auto& e = tally.get("peb.diffuse_axis." + std::to_string(axis));
    report.layer(std::string("peb.diffuse_") + kAxes[axis] + ".ms",
                 e.self_ms / per, "ms");
    diffuse_ms += e.self_ms;
    sweeps += static_cast<double>(e.count);
  }
  report.layer("peb.adi_lines",
               static_cast<double>(lines.value() - lines0) / per, "count");
  report.layer("peb.divergence_retries", static_cast<double>(retried),
               "count");
  // Computed, not measured: each axis sweep reads and writes one
  // double-precision field once; cache misses are not counted.
  const double bytes = sweeps * 2.0 * 8.0 * static_cast<double>(voxels) / per;
  report.layer("peb.diffuse.bytes", bytes, "bytes");
  report.layer("peb.diffuse.gbps",
               diffuse_ms > 0.0 ? bytes / (diffuse_ms / per * 1e6) : 0.0,
               "GB/s");
}

}  // namespace sdmpeb::e2e

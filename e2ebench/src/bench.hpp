#pragma once

// Shared plumbing of the end-to-end benchmark (e2ebench/README.md): run
// options, the per-run report, seeded inputs through the litho pipeline,
// order statistics, span tallies for traced runs, and the set-up repetition
// helper. Every workload times only calls into the library's public entry
// points; everything else (input generation, output checks, span folding)
// happens between the timed windows.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/obs.hpp"
#include "common/rng.hpp"
#include "eval/dataset.hpp"
#include "tensor/grid3.hpp"
#include "tensor/tensor.hpp"

namespace sdmpeb::e2e {

/// Worker-pool width of every workload: the caller plus two pool workers,
/// which leaves one core of a 4-core machine for the serving producer.
inline constexpr int kPoolWidth = 3;

/// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 2025;
  double seconds = 28.0;
  bool trace = false;
  std::string out_dir = "bench_out/e2e";
};

/// Everything one run measured. End-to-end metrics are printed by untraced
/// runs, per-layer metrics by traced runs; the run's JSON file holds both
/// sets plus `info` (other percentiles, sample counts, phase details).
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void end_to_end(const std::string& name, double value,
                  const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  /// JSON has no infinity: a non-finite value (a percentile past a failed
  /// request) is stored as -1.
  void info(const std::string& name, double value);

  /// Record one correctness check. Any failed check makes the run exit
  /// non-zero.
  void check(bool ok, const std::string& what);
  bool correct() const { return errors_.empty(); }

  std::int64_t attempted = 0;  ///< operations (or requests) attempted
  std::int64_t failed = 0;     ///< of those, ones that failed

  /// One `workload metric value unit` line per reported metric, then the
  /// result object as the last line.
  void print(const Options& options) const;
  /// Full record (all three metric sets plus provenance) to
  /// <out_dir>/<workload>[.traced].json.
  void write_file(const Options& options) const;

 private:
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::vector<std::pair<std::string, double>> info_;
  std::vector<std::string> errors_;
};

/// Linear-interpolated quantile (q in [0, 1]) of a sample; +inf entries
/// sort last, so a request that failed counts as over any latency limit.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Same shape and the same bytes.
bool bitwise_equal(const Tensor& a, const Tensor& b);

/// Steady-clock milliseconds between two obs::now_ns() stamps.
inline double ms_between(std::uint64_t begin_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-6;
}

/// Seeded acid volumes: clip i is the i-th clip of
/// litho::generate_clips(mask, n, seed) (same master-stream split), pushed
/// through simulate_aerial_image and exposure_to_photoacid with the
/// DatasetConfig::small() optics — 16 depth levels at `height` x `width`.
class AcidStream {
 public:
  AcidStream(std::uint64_t seed, std::int64_t height, std::int64_t width);
  Grid3 next();

 private:
  eval::DatasetConfig config_;
  Rng master_;
};

/// The gated latency_min_ms, with p10, the median, p90 and the sample count
/// as info. The fastest operation is gated because this benchmark's host
/// drifts between speed regimes lasting minutes: timing noise only ever
/// adds, so one run's median moves with the regime and its minimum least
/// (README.md, "Noise").
void add_latency_metrics(Report& report,
                         const std::vector<double>& latencies_ms);

/// add_latency_metrics for a closed loop, plus the gated ops_per_s
/// (operations per second of measured time, so it sees the median and the
/// tail) and the first (cold) operation's latency as info.
void add_closed_loop_metrics(Report& report,
                             const std::vector<double>& latencies_ms);

/// Per-span-name totals folded from drained span rings. Self time is a
/// span's duration minus its children's on the same thread; times are
/// summed across threads (busy time). "peb.diffuse_axis" spans are keyed
/// per axis as "peb.diffuse_axis.<axis>".
class SpanTally {
 public:
  struct Entry {
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::int64_t count = 0;
    double arg_sum = 0.0;
  };

  /// Clear the span rings; call at a quiescent point before the window.
  static void begin_window();
  /// Fold every span recorded since begin_window(); the union of the kernel
  /// spans on the thread named `caller` adds to the covered time. Fails
  /// `report` when the rings dropped a span.
  void end_window(Report& report, const std::string& caller);

  const Entry& get(const std::string& name) const;
  double covered_ms() const { return covered_ms_; }

 private:
  std::map<std::string, Entry> entries_;
  double covered_ms_ = 0.0;
};

/// Report the nn.* kernel metrics (forward and backward), per operation,
/// from a tally over `ops` operations whose summed caller-thread wall time
/// is `op_ms_total`, plus the workspace arena's live bytes.
void add_kernel_metrics(Report& report, const SpanTally& tally,
                        std::int64_t ops, double op_ms_total);

/// Run `setup` kSetupRepeats times, report the median duration as setup_s
/// and return the last result (earlier results are destroyed first, so the
/// run's peak memory holds one set-up).
template <typename SetupFn>
auto repeated_setup(Report& report, SetupFn&& setup) {
  std::vector<double> seconds;
  decltype(setup()) result{};
  for (int i = 0; i < kSetupRepeats; ++i) {
    result = {};
    const std::uint64_t t0 = obs::now_ns();
    result = setup();
    seconds.push_back(ms_between(t0, obs::now_ns()) * 1e-3);
  }
  report.end_to_end("setup_s", median(seconds), "s");
  report.info("setup_s.max", quantile(seconds, 1.0));
  return result;
}

// Workloads (one translation unit each).
void run_surrogate_infer(const Options& options, Report& report);
void run_rigorous_solve(const Options& options, Report& report);
void run_train_step(const Options& options, Report& report);
void run_serve_open_loop(const Options& options, Report& report);

}  // namespace sdmpeb::e2e

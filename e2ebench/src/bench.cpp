#include "bench.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string_view>

#include "bench/report_json.hpp"
#include "common/arena.hpp"
#include "common/atomic_file.hpp"
#include "common/build_info.hpp"
#include "common/simd.hpp"
#include "litho/aerial.hpp"
#include "litho/dill.hpp"
#include "litho/mask.hpp"

namespace sdmpeb::e2e {

namespace {

/// Shortest decimal that round-trips the double: every measured digit.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string metric_object(const std::vector<Report::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " +
           quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Kernel spans of nn/ and common/gemm: the layers whose union is the
/// "covered" part of an operation.
bool is_kernel_span(std::string_view name) {
  if (name.ends_with(".bwd")) name.remove_suffix(4);
  for (const char* k : {"gemm", "linear", "matmul", "conv2d", "convt2d",
                        "conv3d", "dwconv3d", "dwconv1d", "layer_norm"})
    if (name == k) return true;
  return false;
}

}  // namespace

void Report::end_to_end(const std::string& name, double value,
                        const std::string& unit) {
  check(std::isfinite(value), name + " is finite");
  end_to_end_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  check(std::isfinite(value), name + " is finite");
  layers_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::info(const std::string& name, double value) {
  info_.emplace_back(name, std::isfinite(value) ? value : -1.0);
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  errors_.push_back(what);
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

void Report::print(const Options& options) const {
  const auto& metrics = options.trace ? layers_ : end_to_end_;
  for (const Metric& m : metrics)
    std::printf("%s %s %s %s\n", options.workload.c_str(), m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct() ? "true" : "false",
              static_cast<long long>(attempted),
              static_cast<long long>(failed), metric_object(metrics).c_str());
  std::fflush(stdout);
}

void Report::write_file(const Options& options) const {
  std::string out = "{\n";
  out += "  \"schema\": \"sdmpeb-e2e/1\",\n";
  out += "  \"workload\": " + quoted(options.workload) + ",\n";
  out += "  \"seed\": " + std::to_string(options.seed) + ",\n";
  out += "  \"seconds\": " + number(options.seconds) + ",\n";
  out += std::string("  \"traced\": ") + (options.trace ? "true" : "false") +
         ",\n";
  out += "  \"pool_width\": " + std::to_string(kPoolWidth) + ",\n";
  out += "  \"git_sha\": " + quoted(build::git_sha()) + ",\n";
  out += "  \"build_type\": " + quoted(build::build_type()) + ",\n";
  out += "  \"backend\": " + quoted(simd::isa_name(simd::active())) + ",\n";
  out += "  \"machine_fingerprint\": " +
         quoted(bench::machine_fingerprint()) + ",\n";
  out += std::string("  \"correct\": ") + (correct() ? "true" : "false") +
         ",\n";
  out += "  \"attempted\": " + std::to_string(attempted) + ",\n";
  out += "  \"failed\": " + std::to_string(failed) + ",\n";
  out += "  \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i)
    out += (i ? ", " : "") + quoted(errors_[i]);
  out += "],\n";
  out += "  \"end_to_end\": " + metric_object(end_to_end_) + ",\n";
  out += "  \"per_layer\": " + metric_object(layers_) + ",\n";
  out += "  \"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i)
    out += (i ? ", " : "") + quoted(info_[i].first) + ": " +
           number(info_[i].second);
  out += "}\n}\n";
  atomic_write_file(options.out_dir + "/" + options.workload +
                        (options.trace ? ".traced.json" : ".json"),
                    out);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double idx = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  if (frac == 0.0) return values[lo];
  if (std::isinf(values[hi])) return values[hi];  // inf - inf would be NaN
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

AcidStream::AcidStream(std::uint64_t seed, std::int64_t height,
                       std::int64_t width)
    : config_(eval::DatasetConfig::small()), master_(seed) {
  config_.mask.height = height;
  config_.mask.width = width;
}

Grid3 AcidStream::next() {
  Rng child = master_.split();
  const auto clip = litho::generate_contact_clip(config_.mask, child);
  return litho::exposure_to_photoacid(
      litho::simulate_aerial_image(clip, config_.aerial), config_.dill);
}

void add_latency_metrics(Report& report,
                         const std::vector<double>& latencies_ms) {
  report.end_to_end("latency_min_ms", quantile(latencies_ms, 0.0), "ms");
  report.info("latency.p10_ms", quantile(latencies_ms, 0.1));
  report.info("latency.p50_ms", quantile(latencies_ms, 0.5));
  report.info("latency.p90_ms", quantile(latencies_ms, 0.9));
  report.info("latency.samples", static_cast<double>(latencies_ms.size()));
}

void add_closed_loop_metrics(Report& report,
                             const std::vector<double>& latencies_ms) {
  add_latency_metrics(report, latencies_ms);
  double total_ms = 0.0;
  for (const double ms : latencies_ms) total_ms += ms;
  report.end_to_end("ops_per_s",
                    static_cast<double>(latencies_ms.size()) /
                        (total_ms * 1e-3),
                    "1/s");
  report.info("latency.first_ms", latencies_ms.front());
}

void SpanTally::begin_window() { obs::clear_spans(); }

void SpanTally::end_window(Report& report, const std::string& caller) {
  const std::uint64_t dropped = obs::dropped_spans();
  report.check(dropped == 0, "traced run dropped " +
                                 std::to_string(dropped) + " spans");
  auto spans = obs::collect_spans();
  // Parents start no later and end no earlier than their children.
  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
              return a.end_ns > b.end_ns;
            });
  std::vector<double> child_ms(spans.size(), 0.0);
  std::vector<std::size_t> stack;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> kernel_intervals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    while (!stack.empty() && (spans[stack.back()].tid != s.tid ||
                              spans[stack.back()].end_ns <= s.begin_ns))
      stack.pop_back();
    if (!stack.empty())
      child_ms[stack.back()] += ms_between(s.begin_ns, s.end_ns);
    stack.push_back(i);
    if (s.thread_name == caller && is_kernel_span(s.name))
      kernel_intervals.emplace_back(s.begin_ns, s.end_ns);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const std::string key =
        s.arg_name == "axis" ? s.name + "." + std::to_string(s.arg) : s.name;
    Entry& e = entries_[key];
    const double ms = ms_between(s.begin_ns, s.end_ns);
    e.total_ms += ms;
    e.self_ms += ms - child_ms[i];
    e.count += 1;
    e.arg_sum += static_cast<double>(s.arg);
  }
  // Union of the caller's kernel intervals (kernels nest: linear > gemm).
  std::sort(kernel_intervals.begin(), kernel_intervals.end());
  std::uint64_t reach = 0;
  for (const auto& [b, e] : kernel_intervals) {
    const std::uint64_t from = std::max(b, reach);
    if (e > from) covered_ms_ += ms_between(from, e);
    reach = std::max(reach, e);
  }
}

const SpanTally::Entry& SpanTally::get(const std::string& name) const {
  static const Entry kNone;
  const auto it = entries_.find(name);
  return it == entries_.end() ? kNone : it->second;
}

void add_kernel_metrics(Report& report, const SpanTally& tally,
                        std::int64_t ops, double op_ms_total) {
  const double n = static_cast<double>(std::max<std::int64_t>(ops, 1));
  for (const char* k : {"gemm", "linear", "matmul", "conv2d", "convt2d",
                        "dwconv3d", "dwconv1d", "layer_norm"})
    report.layer(std::string("nn.") + k + ".ms", tally.get(k).self_ms / n,
                 "ms");
  for (const char* k :
       {"conv2d", "convt2d", "dwconv3d", "dwconv1d", "linear", "matmul"})
    report.layer(std::string("nn.") + k + ".bwd.ms",
                 tally.get(std::string(k) + ".bwd").self_ms / n, "ms");
  // Time of a network operation outside every kernel span (the scan,
  // gathers, elementwise ops); 0 where no network ran.
  const double covered = tally.covered_ms();
  const double untraced_ms =
      covered > 0.0 ? std::max(0.0, op_ms_total - covered) : 0.0;
  report.layer("nn.untraced.ms", untraced_ms / n, "ms");
  const auto& gemm = tally.get("gemm");
  report.layer("nn.gemm.calls", static_cast<double>(gemm.count) / n, "count");
  report.layer("nn.gemm.gflops",
               gemm.total_ms > 0.0 ? gemm.arg_sum / (gemm.total_ms * 1e6)
                                   : 0.0,
               "GFLOP/s");
  report.layer("common.arena.live_bytes",
               static_cast<double>(WorkspaceArena::total_heap_bytes()),
               "bytes");
}

}  // namespace sdmpeb::e2e

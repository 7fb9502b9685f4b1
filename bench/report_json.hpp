#pragma once

// Structured benchmark report writer used by bench_report (the canonical
// bench_out/report.json producer consumed by scripts/bench_compare.py) and
// by the end-to-end benchmark in e2ebench/.
//
// Schema "sdmpeb-bench-report/1":
//   {
//     "schema": "sdmpeb-bench-report/1",
//     "git_sha": "...", "build_type": "...", "build_flags": "...",
//     "backend": "scalar|avx2", "cpu_features": "...",
//     "threads": N, "hardware_concurrency": N,
//     "perfmon_mode": "off|software|hardware",
//     "machine_fingerprint": "<cpu_features>|hc=N",
//     "kernels": [ { "name": ..., "median_ms": ..., "iqr_ms": ...,
//                    "min_ms": ..., "trials": N, "flops": F,
//                    "gflops": ..., "counters": {name: median-delta, ...} } ]
//   }
//
// bench_compare.py treats median_ms as the regression statistic and iqr_ms
// as the per-kernel noise floor; everything else is provenance.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/build_info.hpp"
#include "common/error.hpp"
#include "common/perfmon.hpp"
#include "common/simd.hpp"

namespace sdmpeb::bench {

struct KernelReport {
  std::string name;
  double median_ms = 0.0;
  double iqr_ms = 0.0;
  double min_ms = 0.0;
  int trials = 0;
  double flops = 0.0;  ///< per single run; 0 when not meaningful
  /// Median per-trial counter deltas (empty when perfmon is off).
  std::vector<std::pair<std::string, double>> counters;
};

/// Median / interquartile range of a trial series (copies, then sorts).
inline double series_median(std::vector<double> v) {
  SDMPEB_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double series_iqr(std::vector<double> v) {
  SDMPEB_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const auto q = [&](double p) {
    const double idx = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
  };
  return q(0.75) - q(0.25);
}

inline std::string machine_fingerprint() {
  return std::string(simd::cpu_feature_string()) + "|hc=" +
         std::to_string(std::max(1u, std::thread::hardware_concurrency()));
}

class ReportWriter {
 public:
  void add(KernelReport kernel) { kernels_.push_back(std::move(kernel)); }

  /// Serialise and atomically replace `path`. `threads` is the pool width
  /// the kernels ran at (provenance, not a comparison key).
  void save(const std::string& path, int threads) const {
    std::string out;
    out += "{\n";
    out += "  \"schema\": \"sdmpeb-bench-report/1\",\n";
    out += "  \"git_sha\": " + quoted(build::git_sha()) + ",\n";
    out += "  \"build_type\": " + quoted(build::build_type()) + ",\n";
    out += "  \"build_flags\": " + quoted(build::build_flags()) + ",\n";
    out += "  \"backend\": " + quoted(simd::isa_name(simd::active())) + ",\n";
    out += "  \"cpu_features\": " + quoted(simd::cpu_feature_string()) + ",\n";
    out += "  \"threads\": " + std::to_string(threads) + ",\n";
    out += "  \"hardware_concurrency\": " +
           std::to_string(std::max(1u, std::thread::hardware_concurrency())) +
           ",\n";
    out += "  \"perfmon_mode\": " +
           quoted(perfmon::mode_name(perfmon::mode())) + ",\n";
    out += "  \"machine_fingerprint\": " + quoted(machine_fingerprint()) +
           ",\n";
    out += "  \"kernels\": [\n";
    for (std::size_t i = 0; i < kernels_.size(); ++i) {
      const KernelReport& k = kernels_[i];
      out += "    {\"name\": " + quoted(k.name);
      out += ", \"median_ms\": " + num(k.median_ms);
      out += ", \"iqr_ms\": " + num(k.iqr_ms);
      out += ", \"min_ms\": " + num(k.min_ms);
      out += ", \"trials\": " + std::to_string(k.trials);
      out += ", \"flops\": " + num(k.flops);
      if (k.flops > 0.0 && k.median_ms > 0.0)
        out += ", \"gflops\": " + num(k.flops / (k.median_ms * 1e6));
      if (!k.counters.empty()) {
        out += ", \"counters\": {";
        for (std::size_t c = 0; c < k.counters.size(); ++c) {
          if (c) out += ", ";
          out += quoted(k.counters[c].first) + ": " + num(k.counters[c].second);
        }
        out += "}";
      }
      out += "}";
      if (i + 1 < kernels_.size()) out += ",";
      out += "\n";
    }
    out += "  ]\n";
    out += "}\n";
    atomic_write_file(path, out);
  }

 private:
  static std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) < 0x20)
        continue;  // provenance strings are plain ASCII; drop controls
      out += c;
    }
    out += '"';
    return out;
  }

  /// JSON has no NaN/Infinity; clamp to 0 so reports always parse.
  static std::string num(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  std::vector<KernelReport> kernels_;
};

}  // namespace sdmpeb::bench

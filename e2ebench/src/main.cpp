// End-to-end benchmark of the SDM-PEB system (e2ebench/README.md).
//
// Usage: sdmpeb_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                   [--out DIR]
//
// Runs one workload in this process at pool width 3, prints one
// `workload metric value unit` line per metric and, as the last line, the
// result object {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics when untraced, per-layer metrics when traced. Writes the full
// record to DIR/<workload>[.traced].json, and for traced runs a Chrome
// trace to DIR/<workload>.trace.json. Exits non-zero when a correctness
// check fails.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/trace_export.hpp"

namespace {

using namespace sdmpeb;

constexpr const char* kUsage =
    "usage: sdmpeb_e2e --workload "
    "surrogate_infer|rigorous_solve|train_step|serve_open_loop "
    "[--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n";

bool parse(int argc, char** argv, e2e::Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else if (key == "--out") {
      options.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  if (!parse(argc, argv, options)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  void (*workload)(const e2e::Options&, e2e::Report&) = nullptr;
  if (options.workload == "surrogate_infer") {
    workload = e2e::run_surrogate_infer;
  } else if (options.workload == "rigorous_solve") {
    workload = e2e::run_rigorous_solve;
  } else if (options.workload == "train_step") {
    workload = e2e::run_train_step;
  } else if (options.workload == "serve_open_loop") {
    workload = e2e::run_serve_open_loop;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    std::fputs(kUsage, stderr);
    return 2;
  }

  // A serving phase can only be drained once it is quiescent, and one phase
  // records ~1.3k spans per forward on the batcher thread; the default
  // 65,536-span ring would overflow. Must precede the first span.
  if (options.trace && options.workload == "serve_open_loop")
    setenv("SDMPEB_TRACE_CAPACITY", "262144", /*overwrite=*/0);
  obs::set_log_level(obs::LogLevel::kWarn);
  obs::set_thread_name("main");
  parallel::set_thread_count(e2e::kPoolWidth);
  obs::set_trace_enabled(options.trace);

  e2e::Report report;
  try {
    std::filesystem::create_directories(options.out_dir);
    workload(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  if (options.trace) {
    // The rings still hold everything since the last window opened: the
    // last operation and what followed it (replay, hand-driven steps).
    report.check(obs::dropped_spans() == 0, "no spans dropped after the "
                                            "last window");
    report.check(obs::write_chrome_trace_file(options.out_dir + "/" +
                                              options.workload +
                                              ".trace.json"),
                 "Chrome trace written");
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.end_to_end("peak_rss_mb",
                    static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB");

  report.write_file(options);
  report.print(options);
  return report.correct() ? 0 : 1;
}

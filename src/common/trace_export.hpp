#pragma once

// Exporters for the observability layer (common/obs.hpp): Chrome/Perfetto
// `trace_event` JSON for spans, and a CSV dump of the metrics registry.
// Opening a trace: chrome://tracing or https://ui.perfetto.dev, "Open trace
// file", pick the emitted .json.
//
// When spans carry perf_event counter deltas (SDMPEB_PERF, see
// common/perfmon.hpp), the Chrome export annotates each complete event's
// args with the raw counters plus derived attribution: ipc
// (instructions/cycles), misses per kilo-instruction (l1d_mpki, llc_mpki,
// branch_mpki), and — for spans whose arg is a "flops" count, e.g. gemm —
// achieved gflops over the span. Derived fields are emitted only when their
// denominators are non-zero, so the JSON never contains NaN/Inf
// (scripts/check_trace.py rejects them).

#include <iosfwd>
#include <string>

namespace sdmpeb::obs {

/// Write every recorded span as Chrome trace-event JSON ("X" complete
/// events, microsecond timestamps, one tid per recording thread, thread
/// names as "M" metadata events). Valid JSON even with zero spans.
void write_chrome_trace(std::ostream& os);

/// write_chrome_trace to a file; returns false when the file cannot be
/// opened (never throws — exporters run on teardown paths).
bool write_chrome_trace_file(const std::string& path);

/// Refresh derived / pull-model metrics before a dump: arena live bytes,
/// high-water mark and heap-block count, achieved GEMM GFLOP/s (gemm.flops
/// over gemm.time_ns), trace-span drop count, and — when counter-annotated
/// spans exist — per-span-name aggregates (perf.<name>.cycles/instructions
/// totals and perf.<name>.ipc). Called by every dumper; callers only need
/// it directly when reading the registry via snapshot_metrics().
void refresh_derived_metrics();

/// Metrics registry as CSV: name,kind,value,count,sum — histograms emit one
/// row per bucket (kind "histogram_le_<edge>") plus a summary row. The
/// table is preceded by `# key=value` comment lines recording git_sha,
/// build_type and build_flags so archived dumps stay attributable.
void write_metrics_csv(std::ostream& os);
bool write_metrics_csv_file(const std::string& path);

}  // namespace sdmpeb::obs

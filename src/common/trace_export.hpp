#pragma once

// Exporters for the observability layer (common/obs.hpp): Chrome/Perfetto
// `trace_event` JSON for spans, and CSV / Prometheus-text / JSON-lines dumps
// of the metrics registry, plus a background periodic flusher for
// long-running jobs. Opening a trace: chrome://tracing or
// https://ui.perfetto.dev, "Open trace file", pick the emitted .json.
//
// When spans carry perf_event counter deltas (SDMPEB_PERF, see
// common/perfmon.hpp), the Chrome export annotates each complete event's
// args with the raw counters plus derived attribution: ipc
// (instructions/cycles), misses per kilo-instruction (l1d_mpki, llc_mpki,
// branch_mpki), and — for spans whose arg is a "flops" count, e.g. gemm —
// achieved gflops over the span. Derived fields are emitted only when their
// denominators are non-zero, so the JSON never contains NaN/Inf
// (scripts/check_trace.py rejects them).

#include <cstdint>
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

/// Metrics registry in Prometheus text exposition format (metric names
/// sanitised to [a-zA-Z0-9_:], histograms as _bucket/_sum/_count with
/// cumulative le labels).
void write_metrics_prometheus(std::ostream& os);
bool write_metrics_prometheus_file(const std::string& path);

/// Append one JSON-lines snapshot row to `path`:
///   {"t_s":<since process start>,"seq":N,"metrics":{...}}
/// where "metrics" is the registry as one JSON object keyed by metric name
/// (histograms as {"count","sum","buckets":[{"le","count"}...]}).
/// The growing file is a time series — successive rows give counter rates
/// and the arena occupancy / high-water timeline of a long run. Returns
/// false on I/O failure (never throws).
bool append_metrics_jsonl(const std::string& path, std::uint64_t seq);

// ---------------------------------------------------------------------------
// Periodic flush: a background thread snapshots the registry every
// interval_s and writes <dir>/metrics.prom (atomic rewrite, scrapeable) and
// appends to <dir>/metrics.jsonl (time series). The thread only READS
// metrics — it cannot perturb numerics (pinned by the obs byte-identity
// guard test with flushing enabled).
// ---------------------------------------------------------------------------

struct PeriodicFlushOptions {
  std::string dir = "bench_out";
  double interval_s = 5.0;
  bool prometheus = true;
  bool jsonl = true;
};

/// Start the flusher (creates dir if needed). False if already running.
bool start_periodic_flush(const PeriodicFlushOptions& options);

/// Stop and join the flusher after one final flush. Safe when not running.
void stop_periodic_flush();

bool periodic_flush_running();

/// Snapshots flushed since the last start. Test observability.
std::uint64_t periodic_flush_count();

}  // namespace sdmpeb::obs

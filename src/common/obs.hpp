#pragma once

// Low-overhead observability substrate: RAII trace spans recorded into
// per-thread ring buffers, a process-wide metrics registry (counters,
// gauges, fixed-bucket histograms), and a leveled logging facade.
//
// Design contract (DESIGN.md §9):
//   - With tracing disabled (the default), every instrumentation site costs
//     one relaxed atomic load plus one predicted-taken branch — no clock
//     reads, no allocation, no stores. Numerics are untouched either way:
//     the layer only ever reads timestamps and bumps integers.
//   - Span recording in steady state is lock-free: each thread appends to
//     its own pre-sized buffer; the only lock is taken once per thread at
//     registration. Buffers saturate (events are dropped and counted)
//     rather than wrap, so exporters never race a writer overwriting slots.
//   - Metric objects are looked up by name once (cache the reference in a
//     function-local static at the call site) and updated with relaxed
//     atomics thereafter.
//
// Environment:
//   SDMPEB_TRACE=1           enable span + metric recording
//   SDMPEB_TRACE_CAPACITY=N  per-thread span buffer capacity (default 65536)
//   SDMPEB_PERF=1|hw|sw      annotate spans with perf_event counter deltas
//                            (common/perfmon.hpp; degrades to wall-clock
//                            when perf_event_open is unavailable)
//   SDMPEB_LOG_LEVEL=error|warn|info|debug (or 0-3, default info)
//
// Naming conventions: span and metric names are dotted lowercase
// `subsystem.thing` (e.g. "gemm", "conv2d", "peb.diffuse_axis",
// "train.epoch"; "gemm.flops", "arena.high_water_bytes"). Span names and
// arg keys must be string literals (or otherwise outlive the process) —
// the ring stores the pointer, not a copy.

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/perfmon.hpp"

namespace sdmpeb::obs {

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_trace_on;
extern std::atomic<bool> g_perf_on;
}  // namespace detail

/// The one branch every instrumentation site pays when tracing is off.
inline bool trace_enabled() {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}

/// Override the SDMPEB_TRACE resolution (CLI flags, tests).
void set_trace_enabled(bool on);

/// Whether spans additionally snapshot perf_event counters (SDMPEB_PERF,
/// or set_perf_spans_enabled). Only consulted while tracing is on; when the
/// perfmon tier resolves to kOff the flag is harmless — sampling returns
/// false and spans record wall-clock only, exactly as before.
inline bool perf_spans_enabled() {
  return detail::g_perf_on.load(std::memory_order_relaxed);
}

/// Override the SDMPEB_PERF resolution (CLI --perf flag, tests).
void set_perf_spans_enabled(bool on);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Monotonic nanoseconds since process start (steady clock).
std::uint64_t now_ns();

/// Name the calling thread for trace export (worker pool threads register
/// as "pool-worker-N"; the default is "thread-<tid>", tid 0 being the first
/// thread that recorded anything — normally main).
void set_thread_name(const std::string& name);

/// RAII scoped span. Construction snapshots the clock, destruction records
/// one event into the calling thread's buffer. Safe (and free) to place on
/// any path regardless of enablement.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (trace_enabled()) begin(name, nullptr, 0);
  }
  ScopedSpan(const char* name, const char* arg_name, std::int64_t arg) {
    if (trace_enabled()) begin(name, arg_name, arg);
  }
  ~ScopedSpan() {
    if (name_) end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void begin(const char* name, const char* arg_name, std::int64_t arg);
  void end();

  const char* name_ = nullptr;  ///< null while disabled — dtor fast path
  const char* arg_name_ = nullptr;
  std::int64_t arg_ = 0;
  std::uint64_t t0_ns_ = 0;
  perfmon::Sample perf0_;       ///< counter snapshot at begin (when sampled)
  bool has_perf_ = false;
};

#define SDMPEB_OBS_CAT2(a, b) a##b
#define SDMPEB_OBS_CAT(a, b) SDMPEB_OBS_CAT2(a, b)
/// Convenience: SDMPEB_SPAN("gemm"); / SDMPEB_SPAN("gemm", "flops", n).
#define SDMPEB_SPAN(...)                                        \
  ::sdmpeb::obs::ScopedSpan SDMPEB_OBS_CAT(sdmpeb_span_, __LINE__)( \
      __VA_ARGS__)

/// A completed span, resolved for export / inspection.
struct SpanRecord {
  std::string name;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  int tid = 0;
  std::string thread_name;
  std::string arg_name;  ///< empty when the span carried no arg
  std::int64_t arg = 0;
  /// perf_event counter deltas over the span (slot i named by
  /// perfmon::counter_name(i)); perf_count == 0 when the span was recorded
  /// without counters (SDMPEB_PERF off, tier kOff, or a degraded thread).
  int perf_count = 0;
  std::uint64_t perf[perfmon::kMaxCounters] = {};
};

/// Snapshot every recorded span across all threads (ordered by tid, then
/// by record order within a thread). Intended for quiescent points — a
/// thread mid-span contributes only its already-completed events.
std::vector<SpanRecord> collect_spans();

/// Spans discarded because a thread buffer was full.
std::uint64_t dropped_spans();

/// Reset all span buffers (tests). Callers must ensure no spans in flight.
void clear_spans();

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Monotonic event/quantity counter.
class Counter {
 public:
  void add(std::uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value / maximum gauge.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Monotonic high-water update.
  void update_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bounds are upper edges, bucket i counts samples
/// v <= bounds[i] (and one overflow bucket past the last edge). Bounds are
/// set at first registration and immutable after.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void add(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::size_t bucket_size() const { return counts_.size(); }
  std::uint64_t total_count() const {
    return total_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< bounds.size() + 1
  std::atomic<std::uint64_t> total_{0};
  std::atomic<double> sum_{0.0};
};

/// Registry lookups: created on first use, stable addresses for the life of
/// the process. Cache the reference in a function-local static at hot call
/// sites so the map lookup happens once.
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name, std::vector<double> bounds);

/// Read-only snapshot of the whole registry, sorted by name.
struct HistogramRow {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 (overflow last)
  std::uint64_t total = 0;
  double sum = 0.0;
};
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramRow> histograms;
};
MetricsSnapshot snapshot_metrics();

/// Zero every registered metric (tests). Registered names persist.
void reset_metrics();

// ---------------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------------

enum class LogLevel : int { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

LogLevel log_level();
void set_log_level(LogLevel level);
inline bool log_enabled(LogLevel level) {
  return static_cast<int>(level) <= static_cast<int>(log_level());
}

/// One log statement: buffers the streamed message and emits it as a single
/// stderr write on destruction (so concurrent threads never interleave
/// mid-line).
class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage();
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// SDMPEB_LOG(obs::LogLevel::kInfo) << "epoch " << e << " loss " << l;
/// Below-threshold statements short-circuit without evaluating the stream.
#define SDMPEB_LOG(level_)                         \
  if (!::sdmpeb::obs::log_enabled(level_))         \
    ;                                              \
  else                                             \
    ::sdmpeb::obs::LogMessage(level_).stream()

}  // namespace sdmpeb::obs

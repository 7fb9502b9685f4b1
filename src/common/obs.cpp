#include "common/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

namespace sdmpeb::obs {

namespace detail {
std::atomic<bool> g_trace_on{false};
std::atomic<bool> g_perf_on{false};
}  // namespace detail

namespace {

bool env_flag(const char* name) {
  const char* env = std::getenv(name);
  return env && *env != '\0' && std::strcmp(env, "0") != 0;
}

std::size_t span_capacity_from_env() {
  const char* env = std::getenv("SDMPEB_TRACE_CAPACITY");
  if (!env || *env == '\0') return std::size_t{1} << 16;
  const long long v = std::atoll(env);
  return v < 16 ? 16 : static_cast<std::size_t>(v);
}

LogLevel log_level_from_env() {
  const char* env = std::getenv("SDMPEB_LOG_LEVEL");
  if (!env || *env == '\0') return LogLevel::kInfo;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  if (std::strcmp(env, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  const int v = std::atoi(env);
  return static_cast<LogLevel>(std::clamp(v, 0, 3));
}

std::atomic<int> g_log_level{static_cast<int>(log_level_from_env())};

/// Resolve SDMPEB_TRACE / SDMPEB_PERF once at load time so the enablement
/// checks are pure atomic reads afterwards. SDMPEB_PERF=off and =0 mean
/// disabled; any other non-empty value arms counter sampling (the tier
/// itself — hw vs sw vs unavailable — is perfmon's concern).
const bool g_trace_env_resolved = [] {
  detail::g_trace_on.store(env_flag("SDMPEB_TRACE"),
                           std::memory_order_relaxed);
  const char* perf = std::getenv("SDMPEB_PERF");
  detail::g_perf_on.store(
      perf && *perf != '\0' && std::strcmp(perf, "0") != 0 &&
          std::strcmp(perf, "off") != 0,
      std::memory_order_relaxed);
  return true;
}();

std::uint64_t steady_now_raw_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const std::uint64_t g_process_start_ns = steady_now_raw_ns();

// --- span rings -------------------------------------------------------------

struct SpanEvent {
  const char* name;
  const char* arg_name;  ///< null when no arg
  std::int64_t arg;
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
  std::uint64_t perf[perfmon::kMaxCounters];  ///< counter deltas
  std::uint8_t perf_count;                    ///< 0 = no counters sampled
};

/// One thread's span buffer. Only the owning thread writes; `count` is the
/// release-published high-water mark readers trust. The buffer saturates
/// instead of wrapping so published slots are never rewritten.
struct ThreadLog {
  ThreadLog(int tid_in, std::size_t capacity)
      : events(capacity), tid(tid_in),
        name("thread-" + std::to_string(tid_in)) {}

  std::vector<SpanEvent> events;
  std::atomic<std::size_t> count{0};
  std::atomic<std::uint64_t> dropped{0};
  int tid;
  std::string name;  ///< guarded by the registry mutex
};

struct SpanRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadLog>> logs;
  std::size_t capacity = span_capacity_from_env();
};

SpanRegistry& span_registry() {
  static SpanRegistry* registry = new SpanRegistry();  // leaked: outlives TLS
  return *registry;
}

thread_local ThreadLog* tl_log = nullptr;

ThreadLog& local_log() {
  if (!tl_log) {
    auto& registry = span_registry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.logs.push_back(std::make_unique<ThreadLog>(
        static_cast<int>(registry.logs.size()), registry.capacity));
    tl_log = registry.logs.back().get();
  }
  return *tl_log;
}

// --- metrics registry -------------------------------------------------------

struct MetricsRegistry {
  std::mutex mutex;
  // node-based maps: references handed out stay valid across inserts.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

MetricsRegistry& metrics_registry() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

void set_trace_enabled(bool on) {
  detail::g_trace_on.store(on, std::memory_order_relaxed);
}

void set_perf_spans_enabled(bool on) {
  detail::g_perf_on.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

std::uint64_t now_ns() { return steady_now_raw_ns() - g_process_start_ns; }

void set_thread_name(const std::string& name) {
  auto& registry = span_registry();
  ThreadLog& log = local_log();
  std::lock_guard<std::mutex> lock(registry.mutex);
  log.name = name;
}

void ScopedSpan::begin(const char* name, const char* arg_name,
                       std::int64_t arg) {
  name_ = name;
  arg_name_ = arg_name;
  arg_ = arg;
  // Counters before the clock so the counter window brackets the timed
  // window (sample() is a read() syscall, ~1 µs, paid only under
  // SDMPEB_PERF; sample() returning false degrades to wall-clock only).
  if (perf_spans_enabled()) has_perf_ = perfmon::sample(perf0_);
  t0_ns_ = now_ns();
}

void ScopedSpan::end() {
  const std::uint64_t t1 = now_ns();
  SpanEvent e{name_, arg_name_, arg_, t0_ns_, t1, {}, 0};
  if (has_perf_) {
    perfmon::Sample p1;
    if (perfmon::sample(p1)) {
      perfmon::Sample d;
      perfmon::delta(perf0_, p1, d);
      const int n = perfmon::counter_count();
      for (int i = 0; i < n; ++i) e.perf[i] = d.v[i];
      e.perf_count = static_cast<std::uint8_t>(n);
    }
  }
  ThreadLog& log = local_log();
  const std::size_t n = log.count.load(std::memory_order_relaxed);
  if (n >= log.events.size()) {
    log.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  log.events[n] = e;
  // Publish: readers that acquire `count` see the slot contents.
  log.count.store(n + 1, std::memory_order_release);
}

std::vector<SpanRecord> collect_spans() {
  auto& registry = span_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::vector<SpanRecord> records;
  for (const auto& log : registry.logs) {
    const std::size_t n = log->count.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      const SpanEvent& e = log->events[i];
      SpanRecord r;
      r.name = e.name;
      r.begin_ns = e.begin_ns;
      r.end_ns = e.end_ns;
      r.tid = log->tid;
      r.thread_name = log->name;
      if (e.arg_name) r.arg_name = e.arg_name;
      r.arg = e.arg;
      r.perf_count = e.perf_count;
      for (int k = 0; k < e.perf_count; ++k) r.perf[k] = e.perf[k];
      records.push_back(std::move(r));
    }
  }
  return records;
}

std::uint64_t dropped_spans() {
  auto& registry = span_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::uint64_t total = 0;
  for (const auto& log : registry.logs)
    total += log->dropped.load(std::memory_order_relaxed);
  return total;
}

void clear_spans() {
  auto& registry = span_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (auto& log : registry.logs) {
    log->count.store(0, std::memory_order_relaxed);
    log->dropped.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    if (bounds_[i] <= bounds_[i - 1])
      bounds_[i] = bounds_[i - 1];  // degrade gracefully on bad input
}

void Histogram::add(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  counts_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Counter& counter(const std::string& name) {
  auto& registry = metrics_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto& slot = registry.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& gauge(const std::string& name) {
  auto& registry = metrics_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto& slot = registry.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& histogram(const std::string& name, std::vector<double> bounds) {
  auto& registry = metrics_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto& slot = registry.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

MetricsSnapshot snapshot_metrics() {
  auto& registry = metrics_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  MetricsSnapshot snap;
  for (const auto& [name, c] : registry.counters)
    snap.counters.emplace_back(name, c->value());
  for (const auto& [name, g] : registry.gauges)
    snap.gauges.emplace_back(name, g->value());
  for (const auto& [name, h] : registry.histograms) {
    HistogramRow row;
    row.name = name;
    row.bounds = h->bounds();
    row.counts.resize(h->bucket_size());
    for (std::size_t i = 0; i < h->bucket_size(); ++i)
      row.counts[i] = h->bucket_count(i);
    row.total = h->total_count();
    row.sum = h->sum();
    snap.histograms.push_back(std::move(row));
  }
  return snap;
}

void reset_metrics() {
  auto& registry = metrics_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (auto& [name, c] : registry.counters) c->reset();
  for (auto& [name, g] : registry.gauges) g->reset();
  for (auto& [name, h] : registry.histograms) h->reset();
}

// ---------------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------------

LogLevel log_level() {
  return static_cast<LogLevel>(g_log_level.load(std::memory_order_relaxed));
}

void set_log_level(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogMessage::~LogMessage() {
  static const char* kTags[] = {"E", "W", "I", "D"};
  const double t_s = static_cast<double>(now_ns()) * 1e-9;
  // One fprintf per statement: atomic enough that concurrent threads do
  // not interleave characters mid-line.
  std::fprintf(stderr, "[sdmpeb %9.3fs %s] %s\n", t_s,
               kTags[static_cast<int>(level_)], stream_.str().c_str());
}

}  // namespace sdmpeb::obs

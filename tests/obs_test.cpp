// Tests for the observability layer (common/obs.hpp, trace_export.hpp):
// span recording and ordering across the worker pool, metric correctness
// under concurrency, exporter output structure, the disabled-path overhead
// contract, and — crucially — that enabling tracing does not perturb any
// numerics (byte-identical checkpoints).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace_export.hpp"
#include "core/sdm_peb_model.hpp"
#include "core/trainer.hpp"
#include "nn/serialize.hpp"

namespace sdmpeb {
namespace {

/// Every test leaves tracing disabled and the span buffers / metrics zeroed
/// so unrelated test binaries sharing this process state see the default.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_trace_enabled(false);
    obs::clear_spans();
    obs::reset_metrics();
  }
  void TearDown() override {
    obs::set_perf_spans_enabled(false);
    obs::set_trace_enabled(false);
    obs::clear_spans();
    obs::reset_metrics();
  }
};

TEST_F(ObsTest, SpanDisabledRecordsNothing) {
  { SDMPEB_SPAN("test.disabled"); }
  EXPECT_TRUE(obs::collect_spans().empty());
}

TEST_F(ObsTest, SpanNestingIsContainedAndOrdered) {
  obs::set_trace_enabled(true);
  {
    SDMPEB_SPAN("test.outer", "level", 0);
    {
      SDMPEB_SPAN("test.inner");
      volatile int sink = 0;
      for (int i = 0; i < 1000; ++i) sink = sink + i;
    }
  }
  const auto spans = obs::collect_spans();
  ASSERT_EQ(spans.size(), 2u);
  // Completion order within a thread: inner ends (and records) first.
  EXPECT_EQ(spans[0].name, "test.inner");
  EXPECT_EQ(spans[1].name, "test.outer");
  EXPECT_EQ(spans[1].arg_name, "level");
  EXPECT_EQ(spans[1].arg, 0);
  // Containment: outer brackets inner on the clock.
  EXPECT_LE(spans[1].begin_ns, spans[0].begin_ns);
  EXPECT_GE(spans[1].end_ns, spans[0].end_ns);
  EXPECT_LE(spans[0].begin_ns, spans[0].end_ns);
}

TEST_F(ObsTest, SpansFromPoolThreadsCarryThreadIdentity) {
  const int previous = parallel::thread_count();
  parallel::set_thread_count(4);
  obs::set_thread_name("obs-test-main");
  obs::set_trace_enabled(true);

  // Deterministic rendezvous instead of a scheduling lottery: the first
  // chunk each thread runs blocks until a SECOND distinct thread has also
  // arrived. On a single-core host the blocked caller yields the CPU, a
  // pool worker gets scheduled, takes one of the remaining chunks and
  // releases everyone — so at least two threads are guaranteed to record
  // spans. Deadlock-free: chunks are claimed one at a time from a shared
  // cursor, so a blocked thread never holds more than the chunk it is in.
  // The timeout is a CI-hang safety net, not an expected path.
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> arrived;
  std::atomic<int> chunks{0};
  parallel::parallel_for(0, 64, 1, [&](std::int64_t b, std::int64_t e) {
    SDMPEB_SPAN("test.pool_work", "begin", b);
    {
      std::unique_lock<std::mutex> lock(mu);
      arrived.insert(std::this_thread::get_id());
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(30),
                  [&] { return arrived.size() >= 2; });
    }
    chunks.fetch_add(static_cast<int>(e - b));
  });
  obs::set_trace_enabled(false);
  EXPECT_GE(arrived.size(), 2u);
  EXPECT_EQ(static_cast<int>(chunks.load()), 64);

  const auto spans = obs::collect_spans();
  std::set<int> tids;
  std::set<std::string> names;
  std::size_t pool_work = 0;
  for (const auto& s : spans) {
    if (s.name != "test.pool_work") continue;
    ++pool_work;
    tids.insert(s.tid);
    names.insert(s.thread_name);
    // Chunks run either on the caller or on a named pool worker.
    EXPECT_TRUE(s.thread_name == "obs-test-main" ||
                s.thread_name.rfind("pool-worker-", 0) == 0)
        << s.thread_name;
  }
  EXPECT_EQ(pool_work, 64u);
  // collect_spans orders by tid: verify the grouping is monotonic.
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_LE(spans[i - 1].tid, spans[i].tid);

  // The rendezvous guarantees two distinct threads, one of them a pool
  // worker (the caller can be at most one of the two).
  EXPECT_GE(tids.size(), 2u);
  bool saw_worker = false;
  for (const auto& n : names)
    if (n.rfind("pool-worker-", 0) == 0) saw_worker = true;
  EXPECT_TRUE(saw_worker);
  parallel::set_thread_count(previous);
}

TEST_F(ObsTest, CounterIsExactUnderConcurrency) {
  obs::Counter& c = obs::counter("test.concurrent_counter");
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add(1);
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST_F(ObsTest, HistogramBucketsByUpperEdge) {
  obs::Histogram& h = obs::histogram("test.hist", {1.0, 2.0, 4.0});
  h.add(0.5);   // <= 1
  h.add(1.0);   // <= 1 (edge inclusive)
  h.add(1.5);   // <= 2
  h.add(4.0);   // <= 4
  h.add(100.0); // overflow
  ASSERT_EQ(h.bucket_size(), 4u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.total_count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 100.0);
}

TEST_F(ObsTest, HistogramIsConsistentUnderConcurrency) {
  obs::Histogram& h = obs::histogram("test.hist_mt", {10.0, 20.0});
  constexpr int kThreads = 4;
  constexpr int kAdds = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kAdds; ++i)
        h.add(static_cast<double>((t + i) % 30));
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.total_count(), static_cast<std::uint64_t>(kThreads) * kAdds);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < h.bucket_size(); ++i)
    bucket_total += h.bucket_count(i);
  EXPECT_EQ(bucket_total, h.total_count());
}

TEST_F(ObsTest, GaugeUpdateMaxIsMonotonic) {
  obs::Gauge& g = obs::gauge("test.gauge");
  g.update_max(3.0);
  g.update_max(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.update_max(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST_F(ObsTest, RegistryReturnsStableReferences) {
  obs::Counter& a = obs::counter("test.stable");
  obs::Counter& b = obs::counter("test.stable");
  EXPECT_EQ(&a, &b);
  a.add(2);
  EXPECT_EQ(b.value(), 2u);
}

/// Rudimentary structural validation of the Chrome trace JSON: balanced
/// braces/brackets outside strings and the expected event fields. (The repo
/// has no JSON parser; CI runs scripts/check_trace.py for a full parse.)
void check_balanced_json(const std::string& text) {
  int brace = 0, bracket = 0;
  bool in_string = false, escaped = false;
  for (const char ch : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (ch == '\\') escaped = true;
      if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{') ++brace;
    if (ch == '}') --brace;
    if (ch == '[') ++bracket;
    if (ch == ']') --bracket;
    ASSERT_GE(brace, 0);
    ASSERT_GE(bracket, 0);
  }
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
  EXPECT_FALSE(in_string);
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST_F(ObsTest, ChromeTraceJsonRoundTrip) {
  obs::set_trace_enabled(true);
  {
    SDMPEB_SPAN("test.export_a", "items", 42);
  }
  {
    SDMPEB_SPAN("test.export_b");
  }
  obs::set_trace_enabled(false);

  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string json = os.str();
  check_balanced_json(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export_a\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export_b\""), std::string::npos);
  EXPECT_NE(json.find("\"items\""), std::string::npos);
  // One complete event per span, at least one thread-name metadata event.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 2u);
  EXPECT_GE(count_occurrences(json, "\"ph\":\"M\""), 1u);
}

TEST_F(ObsTest, ChromeTraceEmptyIsStillValidJson) {
  std::ostringstream os;
  obs::write_chrome_trace(os);
  check_balanced_json(os.str());
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
}

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST_F(ObsTest, MetricsCsvContainsRegisteredMetrics) {
  obs::counter("test.csv_counter").add(3);
  obs::gauge("test.csv_gauge").set(1.5);
  obs::histogram("test.csv_hist", {1.0, 2.0}).add(1.5);

  std::ostringstream csv;
  obs::write_metrics_csv(csv);
  const std::string csv_text = csv.str();
  // Build-provenance comment lines precede the column header; every line
  // before it must be a `# key=value` comment.
  const auto header_pos = csv_text.find("name,kind,value,count,sum");
  ASSERT_NE(header_pos, std::string::npos);
  EXPECT_NE(csv_text.find("# git_sha="), std::string::npos);
  EXPECT_NE(csv_text.find("# build_flags="), std::string::npos);
  std::istringstream preamble(csv_text.substr(0, header_pos));
  std::string line;
  while (std::getline(preamble, line))
    EXPECT_EQ(line.rfind("# ", 0), 0u) << line;
  EXPECT_NE(csv_text.find("test.csv_counter,counter,3"), std::string::npos);
  EXPECT_NE(csv_text.find("test.csv_gauge,gauge,"), std::string::npos);
  EXPECT_NE(csv_text.find("test.csv_hist,histogram_le_"), std::string::npos);
}

/// True when `text` is a whole metrics CSV dump: `# ` provenance lines, the
/// column header, then rows of five fields with a name, a known kind and a
/// numeric value.
bool metrics_csv_parses(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line) && line.rfind("# ", 0) == 0) {
  }
  if (line != "name,kind,value,count,sum") return false;
  while (std::getline(lines, line)) {
    if (std::count(line.begin(), line.end(), ',') != 4) return false;
    const auto c1 = line.find(',');
    const auto c2 = line.find(',', c1 + 1);
    const auto c3 = line.find(',', c2 + 1);
    const std::string kind = line.substr(c1 + 1, c2 - c1 - 1);
    const std::string value = line.substr(c2 + 1, c3 - c2 - 1);
    const bool known_kind = kind == "counter" || kind == "gauge" ||
                            kind == "histogram" ||
                            kind.rfind("histogram_le_", 0) == 0;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    if (c1 == 0 || !known_kind || value.empty() || *end != '\0')
      return false;
  }
  return true;
}

// Metrics registry hammered from the worker pool while another thread
// snapshots it as CSV mid-flight: every snapshot must parse (the registry's
// node map is mutex-guarded, values are atomics), and the final totals must
// be exact once the writers join.
TEST_F(ObsTest, MetricsSurviveConcurrentWritersAndMidFlightSnapshots) {
  const int previous = parallel::thread_count();
  parallel::set_thread_count(4);

  std::atomic<bool> done{false};
  int snapshots = 0;
  int parsed = 0;
  std::thread snapshotter([&] {
    while (!done.load(std::memory_order_relaxed)) {
      std::ostringstream csv;
      obs::write_metrics_csv(csv);
      ++snapshots;
      if (metrics_csv_parses(csv.str())) ++parsed;
    }
  });

  constexpr std::int64_t kChunks = 256;
  constexpr int kAddsPerChunk = 200;
  parallel::parallel_for(0, kChunks, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t chunk = b; chunk < e; ++chunk) {
      // counter() / histogram() on every iteration also hammers the
      // registry lookup path, not just the atomics behind it.
      obs::Counter& c = obs::counter("test.hammer_counter");
      obs::Histogram& h = obs::histogram("test.hammer_hist", {8.0, 64.0});
      obs::Gauge& g = obs::gauge("test.hammer_gauge");
      for (int i = 0; i < kAddsPerChunk; ++i) {
        c.add(1);
        h.add(static_cast<double>((chunk + i) % 100));
        g.update_max(static_cast<double>(chunk));
      }
    }
  });
  done.store(true, std::memory_order_relaxed);
  snapshotter.join();

  EXPECT_GE(snapshots, 1);
  EXPECT_EQ(parsed, snapshots);
  EXPECT_EQ(obs::counter("test.hammer_counter").value(),
            static_cast<std::uint64_t>(kChunks) * kAddsPerChunk);
  obs::Histogram& h = obs::histogram("test.hammer_hist", {8.0, 64.0});
  EXPECT_EQ(h.total_count(), static_cast<std::uint64_t>(kChunks) * kAddsPerChunk);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < h.bucket_size(); ++i)
    bucket_total += h.bucket_count(i);
  EXPECT_EQ(bucket_total, h.total_count());
  EXPECT_DOUBLE_EQ(obs::gauge("test.hammer_gauge").value(),
                   static_cast<double>(kChunks - 1));
  parallel::set_thread_count(previous);
}

TEST_F(ObsTest, DisabledSpanOverheadIsNegligible) {
  ASSERT_FALSE(obs::trace_enabled());
  constexpr int kIters = 1 << 20;
  Timer timer;
  for (int i = 0; i < kIters; ++i) {
    SDMPEB_SPAN("test.overhead");
  }
  const double per_iter_ns = timer.seconds() * 1e9 / kIters;
  // The contract is one relaxed load + branch (~1 ns); 100 ns leaves two
  // orders of magnitude of headroom for CI jitter.
  EXPECT_LT(per_iter_ns, 100.0);
}

// ---------------------------------------------------------------------------
// Tracing must not change numerics: training the same tiny model with
// tracing off and on yields byte-identical checkpoints.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, TracingDoesNotChangeTrainingNumerics) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("sdmpeb_obs_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  const auto train_once = [&](bool traced, const std::string& name) {
    obs::set_trace_enabled(traced);
    // The traced run also samples perf counters around every span, which
    // must not perturb training numerics either.
    obs::set_perf_spans_enabled(traced);
    Rng rng(16);
    core::SdmPebModel model(core::SdmPebConfig::tiny(), rng);
    std::vector<core::TrainSample> data;
    for (int i = 0; i < 2; ++i) {
      Tensor acid = Tensor::uniform(Shape{2, 8, 8}, rng, 0.0f, 0.9f);
      Tensor label = acid.map([](float v) { return 2.0f * v - 0.5f; });
      data.push_back({acid, label});
    }
    core::TrainConfig config;
    config.epochs = 3;
    config.accumulation = 2;
    config.lr0 = 1e-2f;
    config.grad_clip_norm = 1.0f;  // exercises the grad-norm metric path
    Rng train_rng(17);
    core::train_model(model, data, config, train_rng);
    obs::set_perf_spans_enabled(false);
    obs::set_trace_enabled(false);
    const auto path = (dir / name).string();
    nn::save_parameters(model, path);
    return path;
  };

  const auto plain = train_once(false, "plain.ckpt");
  const auto traced = train_once(true, "traced.ckpt");
  EXPECT_EQ(read_file_bytes(plain), read_file_bytes(traced));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sdmpeb

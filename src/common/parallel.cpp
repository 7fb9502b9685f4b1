#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "common/obs.hpp"

namespace sdmpeb::parallel {

namespace {

/// Set while a thread is executing chunks, so nested parallel loops run
/// inline instead of re-entering the pool (which would deadlock the
/// broadcast protocol).
thread_local bool tl_in_pool = false;

int resolve_width(int n) {
  if (n <= 0) {
    const auto hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return n;
}

int width_from_env() {
  const char* env = std::getenv("SDMPEB_THREADS");
  if (!env || *env == '\0') return resolve_width(0);
  return resolve_width(std::atoi(env));
}

/// Persistent broadcast pool. One job at a time: the caller publishes a
/// chunk function plus a shared atomic cursor, every worker (and the caller
/// itself) drains chunks until the cursor passes the end, and the caller
/// blocks until the last worker checks out.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool(width_from_env());
    return pool;
  }

  ~Pool() { shutdown(); }

  int threads() const { return threads_; }

  void resize(int n) {
    n = resolve_width(n);
    if (n == threads_) return;
    shutdown();
    start(n);
  }

  void run(std::int64_t chunks,
           const std::function<void(std::int64_t)>& chunk_fn) {
    if (chunks <= 0) return;
    if (threads_ == 1 || chunks == 1 || tl_in_pool) {
      if (obs::trace_enabled()) {
        static obs::Counter& inline_jobs = obs::counter("pool.inline_jobs");
        inline_jobs.add(1);
      }
      for (std::int64_t c = 0; c < chunks; ++c) chunk_fn(c);
      return;
    }
    if (obs::trace_enabled()) {
      static obs::Counter& jobs = obs::counter("pool.jobs");
      static obs::Counter& dispatched = obs::counter("pool.chunks");
      jobs.add(1);
      dispatched.add(static_cast<std::uint64_t>(chunks));
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &chunk_fn;
      next_chunk_.store(0, std::memory_order_relaxed);
      total_chunks_ = chunks;
      active_workers_ = static_cast<int>(workers_.size());
      ++epoch_;
    }
    work_cv_.notify_all();

    tl_in_pool = true;
    drain();
    tl_in_pool = false;

    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return active_workers_ == 0; });
    job_ = nullptr;
    if (pending_exception_) {
      auto e = pending_exception_;
      pending_exception_ = nullptr;
      std::rethrow_exception(e);
    }
  }

 private:
  explicit Pool(int n) { start(n); }

  void start(int n) {
    SDMPEB_CHECK(n >= 1);
    threads_ = n;
    stop_ = false;
    epoch_ = 0;
    workers_.reserve(static_cast<std::size_t>(n - 1));
    for (int i = 0; i < n - 1; ++i)
      workers_.emplace_back([this, i] {
        // Register the thread with the observability layer up front so
        // trace spans recorded from this worker carry a stable identity.
        obs::set_thread_name("pool-worker-" + std::to_string(i + 1));
        worker_loop();
      });
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
  }

  void worker_loop() {
    std::uint64_t seen_epoch = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_cv_.wait(lock,
                    [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      lock.unlock();
      tl_in_pool = true;
      drain();
      tl_in_pool = false;
      lock.lock();
      if (--active_workers_ == 0) done_cv_.notify_all();
    }
  }

  /// Pull chunks off the shared cursor until the job is exhausted. Which
  /// thread runs which chunk is scheduling-dependent, but the chunk -> work
  /// mapping is static, so results are not.
  void drain() {
    const auto* job = job_;
    for (;;) {
      const auto c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
      if (c >= total_chunks_) break;
      try {
        (*job)(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!pending_exception_)
          pending_exception_ = std::current_exception();
        // Abandon remaining chunks; the caller rethrows.
        next_chunk_.store(total_chunks_, std::memory_order_relaxed);
      }
    }
  }

  int threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  std::uint64_t epoch_ = 0;
  int active_workers_ = 0;
  const std::function<void(std::int64_t)>* job_ = nullptr;
  std::atomic<std::int64_t> next_chunk_{0};
  std::int64_t total_chunks_ = 0;
  std::exception_ptr pending_exception_;
};

}  // namespace

int thread_count() { return Pool::instance().threads(); }

void set_thread_count(int n) { Pool::instance().resize(n); }

std::int64_t chunk_count(std::int64_t begin, std::int64_t end,
                         std::int64_t grain) {
  SDMPEB_CHECK(grain >= 1);
  if (end <= begin) return 0;
  return (end - begin + grain - 1) / grain;
}

void for_chunks(std::int64_t begin, std::int64_t end, std::int64_t grain,
                const std::function<void(std::int64_t, std::int64_t,
                                         std::int64_t)>& fn) {
  const auto chunks = chunk_count(begin, end, grain);
  if (chunks == 0) return;
  if (chunks == 1) {
    // Fast path: no dispatch overhead for small ranges.
    fn(0, begin, end);
    return;
  }
  Pool::instance().run(chunks, [&](std::int64_t c) {
    const auto cb = begin + c * grain;
    const auto ce = std::min(end, cb + grain);
    fn(c, cb, ce);
  });
}

}  // namespace sdmpeb::parallel

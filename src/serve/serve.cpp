#include "serve/serve.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/obs.hpp"

namespace sdmpeb::serve {

namespace {

obs::Histogram& latency_histogram() {
  static obs::Histogram& h = obs::histogram(
      "serve.latency_ms", {0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500,
                           1000, 2000, 5000});
  return h;
}

obs::Histogram& batch_histogram() {
  static obs::Histogram& h =
      obs::histogram("serve.batch_size", {1, 2, 4, 8, 16, 32, 64});
  return h;
}

double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

}  // namespace

const char* status_name(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kRejectedFull: return "rejected_full";
    case Status::kRejectedDraining: return "rejected_draining";
    case Status::kInvalid: return "invalid";
    case Status::kExpired: return "expired";
    case Status::kShed: return "shed";
    case Status::kError: return "error";
  }
  return "unknown";
}

void ServeConfig::validate() const {
  SDMPEB_CHECK_MSG(queue_capacity > 0, "serve queue_capacity must be > 0");
  SDMPEB_CHECK_MSG(max_batch > 0, "serve max_batch must be > 0");
  SDMPEB_CHECK_MSG(max_wait_ms >= 0.0, "serve max_wait_ms must be >= 0");
  SDMPEB_CHECK_MSG(default_deadline_ms > 0.0,
                   "serve default_deadline_ms must be > 0");
  SDMPEB_CHECK_MSG(overload_high_fraction > 0.0 &&
                       overload_high_fraction <= 1.0,
                   "serve overload_high_fraction must be in (0, 1]");
  SDMPEB_CHECK_MSG(overload_low_fraction >= 0.0 &&
                       overload_low_fraction < overload_high_fraction,
                   "serve overload_low_fraction must be in [0, high)");
  SDMPEB_CHECK_MSG(overload_cycles > 0, "serve overload_cycles must be > 0");
  SDMPEB_CHECK_MSG(fault_slow_infer_ms >= 0.0,
                   "serve fault_slow_infer_ms must be >= 0");
}

ServeRuntime::ServeRuntime(const FrozenModel& model, ServeConfig config)
    : model_(model), config_(config) {
  config_.validate();
  batcher_ = std::thread([this] { batcher_loop(); });
}

ServeRuntime::~ServeRuntime() { drain(); }

Admission ServeRuntime::submit(Request req, ResponseFn done) {
  SDMPEB_CHECK_MSG(done, "serve submit requires a response callback");
  static obs::Counter& accepted_ctr = obs::counter("serve.accepted");
  static obs::Counter& rejected_ctr = obs::counter("serve.rejected");
  static obs::Counter& invalid_ctr = obs::counter("serve.invalid");

  // Injected request corruption: flip one payload value to NaN before
  // validation — the validator below must refuse it, which is exactly what
  // a corrupted wire frame that survived framing checks would hit.
  if (req.acid.numel() > 0 && fault::should_fire("serve.corrupt_request")) {
    req.acid[static_cast<std::int64_t>(
        fault::draw_index(static_cast<std::size_t>(req.acid.numel())))] =
        std::nanf("");
  }

  // Admission validation happens outside the lock: shape against the frozen
  // plan, payload finiteness. Invalid work never occupies queue capacity.
  const auto invalid = [&](const std::string& reason) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    ++stats_.invalid;
    invalid_ctr.add(1);
    return Admission{false, Status::kInvalid, reason};
  };
  if (!(req.acid.shape() == model_.input_shape()))
    return invalid("payload shape " + req.acid.shape().to_string() +
                   " != frozen plan " + model_.input_shape().to_string());
  for (const float v : req.acid.data())
    if (!std::isfinite(v)) return invalid("non-finite value in payload");

  const std::uint64_t now = obs::now_ns();
  const double deadline_ms =
      req.deadline_ms > 0.0 ? req.deadline_ms : config_.default_deadline_ms;

  Pending item;
  item.req = std::move(req);
  item.done = std::move(done);
  item.enqueue_ns = now;
  item.deadline_ns = now + static_cast<std::uint64_t>(deadline_ms * 1e6);

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    if (draining_) {
      ++stats_.rejected_draining;
      rejected_ctr.add(1);
      return {false, Status::kRejectedDraining, "runtime is draining"};
    }
    const bool injected = fault::should_fire("serve.queue_reject");
    if (injected ||
        static_cast<std::int64_t>(queue_.size()) >= config_.queue_capacity) {
      ++stats_.rejected_full;
      rejected_ctr.add(1);
      return {false, Status::kRejectedFull,
              injected ? "injected queue_reject fault"
                       : "queue at capacity (" +
                             std::to_string(config_.queue_capacity) + ")"};
    }
    queue_.push_back(std::move(item));
    ++stats_.accepted;
    accepted_ctr.add(1);
    const auto depth = static_cast<std::int64_t>(queue_.size());
    stats_.queue_depth_peak = std::max(stats_.queue_depth_peak, depth);
    obs::gauge("serve.queue_depth").set(static_cast<double>(depth));
    obs::gauge("serve.queue_depth_peak")
        .update_max(static_cast<double>(depth));
  }
  work_cv_.notify_one();
  return {true, Status::kOk, ""};
}

std::uint64_t ServeRuntime::wait_budget_ns_locked() const {
  const double budget_ms =
      degraded_ ? config_.max_wait_ms * 0.5 : config_.max_wait_ms;
  return static_cast<std::uint64_t>(budget_ms * 1e6);
}

std::vector<ServeRuntime::Pending> ServeRuntime::update_overload_locked() {
  static obs::Counter& degraded_ctr = obs::counter("serve.degraded_entries");
  std::vector<Pending> shed;
  const double capacity = static_cast<double>(config_.queue_capacity);
  const double frac = static_cast<double>(queue_.size()) / capacity;
  if (frac >= config_.overload_high_fraction) {
    if (++over_cycles_ >= config_.overload_cycles && !degraded_) {
      degraded_ = true;
      ++stats_.degraded_entries;
      degraded_ctr.add(1);
      SDMPEB_LOG(obs::LogLevel::kWarn)
          << "serve: sustained overload (depth " << queue_.size() << "/"
          << config_.queue_capacity << "), degrading: wait budget halved, "
          << "shedding low-priority work";
    }
  } else if (frac <= config_.overload_low_fraction) {
    over_cycles_ = 0;
    if (degraded_) {
      degraded_ = false;
      SDMPEB_LOG(obs::LogLevel::kInfo) << "serve: overload cleared";
    }
  }
  if (!degraded_) return shed;

  // Shed the lowest-priority queued requests down to the low watermark;
  // among equal priorities the youngest goes first (the oldest is closest
  // to service and has waited longest).
  const auto target = static_cast<std::int64_t>(
      config_.overload_low_fraction * capacity);
  while (static_cast<std::int64_t>(queue_.size()) > target) {
    auto victim = queue_.begin();
    for (auto it = queue_.begin(); it != queue_.end(); ++it)
      if (it->req.priority <= victim->req.priority) victim = it;
    shed.push_back(std::move(*victim));
    queue_.erase(victim);
  }
  return shed;
}

void ServeRuntime::respond(Pending&& item, Status status, Tensor label,
                           std::string error, std::int64_t batch_size) {
  static obs::Counter& completed_ctr = obs::counter("serve.completed");
  static obs::Counter& expired_ctr = obs::counter("serve.expired");
  static obs::Counter& shed_ctr = obs::counter("serve.shed");
  static obs::Counter& error_ctr = obs::counter("serve.errors");

  const std::uint64_t now = obs::now_ns();
  Response response;
  response.id = item.req.id;
  response.status = status;
  response.label = std::move(label);
  response.error = std::move(error);
  response.total_ms = ns_to_ms(now - item.enqueue_ns);
  // For executed items queue_ms is the admission -> dequeue split; work
  // that never left the queue spent its whole life there.
  response.queue_ms = item.dequeue_ns > 0
                          ? ns_to_ms(item.dequeue_ns - item.enqueue_ns)
                          : response.total_ms;
  response.batch_size = batch_size;

  {
    std::lock_guard<std::mutex> lock(mu_);
    switch (status) {
      case Status::kOk: ++stats_.completed; break;
      case Status::kExpired: ++stats_.expired; break;
      case Status::kShed: ++stats_.shed; break;
      default: ++stats_.errors; break;
    }
  }
  switch (status) {
    case Status::kOk:
      completed_ctr.add(1);
      latency_histogram().add(response.total_ms);
      break;
    case Status::kExpired: expired_ctr.add(1); break;
    case Status::kShed: shed_ctr.add(1); break;
    default: error_ctr.add(1); break;
  }
  // The callback runs with no runtime lock held; a throwing callback is a
  // caller bug but must not take down the batcher.
  ResponseFn done = std::move(item.done);
  try {
    done(std::move(response));
  } catch (const std::exception& e) {
    SDMPEB_LOG(obs::LogLevel::kError)
        << "serve: response callback threw: " << e.what();
  }
}

void ServeRuntime::batcher_loop() {
  obs::set_thread_name("serve-batcher");
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return draining_ || !queue_.empty(); });
    if (queue_.empty()) break;  // draining and nothing left

    // Batch formation: go when max_batch requests are waiting, the oldest
    // has waited out the (possibly degraded) budget, or a drain begins.
    while (!draining_ &&
           static_cast<std::int64_t>(queue_.size()) < config_.max_batch) {
      const std::uint64_t go_at =
          queue_.front().enqueue_ns + wait_budget_ns_locked();
      const std::uint64_t now = obs::now_ns();
      if (now >= go_at) break;
      work_cv_.wait_for(lock, std::chrono::nanoseconds(go_at - now));
      if (queue_.empty()) break;  // spurious wake after a concurrent drain
    }
    if (queue_.empty()) continue;

    auto shed = update_overload_locked();

    std::vector<Pending> batch;
    const std::uint64_t dequeue_ns = obs::now_ns();
    while (!queue_.empty() &&
           static_cast<std::int64_t>(batch.size()) < config_.max_batch) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    in_flight_ += static_cast<std::int64_t>(batch.size());
    ++stats_.batches;
    obs::gauge("serve.queue_depth")
        .set(static_cast<double>(queue_.size()));
    lock.unlock();

    for (auto& victim : shed)
      respond(std::move(victim), Status::kShed, Tensor(),
              "shed by overload degradation", 0);

    const auto batch_size = static_cast<std::int64_t>(batch.size());
    batch_histogram().add(static_cast<double>(batch_size));
    for (auto& item : batch) {
      // Deadline check 1 (dequeue): work that expired while queued is shed
      // without touching the model.
      if (dequeue_ns > item.deadline_ns) {
        respond(std::move(item), Status::kExpired, Tensor(),
                "deadline expired while queued", batch_size);
        continue;
      }
      if (fault::should_fire("serve.slow_infer")) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            static_cast<std::uint64_t>(config_.fault_slow_infer_ms * 1e6)));
      }
      // Deadline check 2 (pre-forward): earlier items in this batch (or an
      // injected stall) may have consumed the remaining budget.
      if (obs::now_ns() > item.deadline_ns) {
        respond(std::move(item), Status::kExpired, Tensor(),
                "deadline expired while batched", batch_size);
        continue;
      }
      item.dequeue_ns = dequeue_ns;
      try {
        Tensor label = model_.infer(item.req.acid);
        respond(std::move(item), Status::kOk, std::move(label), "",
                batch_size);
      } catch (const Error& e) {
        respond(std::move(item), Status::kError, Tensor(), e.what(),
                batch_size);
      }
    }

    lock.lock();
    in_flight_ -= batch_size;
  }
  batcher_done_ = true;
  lock.unlock();
  drained_cv_.notify_all();
}

void ServeRuntime::drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained_cv_.wait(lock, [&] { return batcher_done_; });
  }
  if (batcher_.joinable()) batcher_.join();
}

bool ServeRuntime::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

bool ServeRuntime::degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_;
}

std::int64_t ServeRuntime::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(queue_.size());
}

ServeRuntime::Stats ServeRuntime::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace sdmpeb::serve

#pragma once

// Resilient inference serving runtime (DESIGN.md §13).
//
// Robustness contract:
//   - The request queue is BOUNDED: admission is explicit, and a full queue
//     rejects with a reason instead of growing. Memory in steady state is
//     queue_capacity requests + the one in service, ever.
//   - Every ACCEPTED request receives exactly one response — completed,
//     expired, shed, or errored — including across drain. Rejected requests
//     are answered synchronously by submit() and never enter the queue.
//   - One request per cycle: the batcher thread takes the oldest queued
//     request and runs its forward. No op has a batch axis, so waiting to
//     group requests would only delay them.
//   - Per-request deadlines are checked once, at dequeue. Expired work is
//     answered, not executed.
//   - Under sustained overload (queue depth at or above 3/4 of capacity
//     for 3 consecutive dequeues) the runtime degrades: the lowest-priority
//     queued requests are shed until depth falls to 1/4 of capacity. It
//     recovers once depth drops to that low watermark.
//   - drain() (the SIGINT/SIGTERM path in `sdmpeb_cli serve`) stops
//     admission, finishes the queue and the request in service, delivers
//     every response, and joins the batcher thread. Destruction drains.
//
// Fault-injection sites (common/fault.hpp): serve.slow_infer stalls one
// forward by ServeConfig::fault_slow_infer_ms; serve.queue_reject
// rejects one admission as if the queue were full; serve.corrupt_request
// poisons one payload value with a NaN on the way in (the admission
// validator must catch it).
//
// Metrics (obs registry): counters serve.accepted / serve.rejected /
// serve.invalid / serve.completed / serve.expired / serve.shed /
// serve.errors / serve.degraded_entries; gauges serve.queue_depth and
// serve.queue_depth_peak; histogram serve.latency_ms.
//
// Threading: any number of producer threads may call submit();
// one internal batcher thread dequeues and runs the forwards (the
// forward itself fans out across the shared worker pool, which admits a
// single top-level job at a time — concurrent forwards would serialize
// on the pool anyway). Response callbacks run on the batcher thread and
// must not call back into the runtime except submit()/queue_depth().

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/frozen_model.hpp"
#include "tensor/tensor.hpp"

namespace sdmpeb::serve {

/// Terminal status of a request. kOk..kError appear in responses;
/// kRejected* / kInvalid are also returned synchronously by submit().
enum class Status : std::uint32_t {
  kOk = 0,
  kRejectedFull = 1,      ///< bounded queue at capacity (or injected reject)
  kRejectedDraining = 2,  ///< runtime is draining / stopped
  kInvalid = 3,           ///< malformed payload (shape / non-finite values)
  kExpired = 4,           ///< deadline passed while queued
  kShed = 5,              ///< dropped by overload degradation (low priority)
  kError = 6,             ///< forward threw; message in Response::error
};

const char* status_name(Status status);

struct ServeConfig {
  std::int64_t queue_capacity = 64;  ///< bounded admission; > 0
  double default_deadline_ms = 1000.0;  ///< for requests with deadline 0
  /// Stall applied when the serve.slow_infer fault site fires.
  double fault_slow_infer_ms = 20.0;

  void validate() const;
};

struct Request {
  std::uint64_t id = 0;
  std::int32_t priority = 0;  ///< higher survives overload shedding longer
  double deadline_ms = 0.0;   ///< budget from admission; <= 0 uses default
  Tensor acid;                ///< (D, H, W), must match the frozen plan
};

struct Response {
  std::uint64_t id = 0;
  Status status = Status::kOk;
  Tensor label;        ///< only for kOk
  std::string error;   ///< reason for non-kOk terminal states
  double queue_ms = 0.0;   ///< admission -> dequeue
  double total_ms = 0.0;   ///< admission -> response
};

/// Synchronous admission verdict. Accepted requests are answered later via
/// the callback; rejected ones are answered here and only here.
struct Admission {
  bool accepted = false;
  Status status = Status::kOk;
  std::string reason;
};

using ResponseFn = std::function<void(Response)>;

class ServeRuntime {
 public:
  ServeRuntime(const FrozenModel& model, ServeConfig config);
  ~ServeRuntime();  ///< drains
  ServeRuntime(const ServeRuntime&) = delete;
  ServeRuntime& operator=(const ServeRuntime&) = delete;

  /// Admit `req` into the bounded queue. On acceptance, `done` is invoked
  /// exactly once from the batcher thread with the terminal Response; on
  /// rejection, `done` is never invoked and the verdict carries the reason.
  Admission submit(Request req, ResponseFn done);

  /// Stop admission, finish queued work and the request in service
  /// (delivering every response), and join the batcher. Idempotent; called
  /// by the destructor.
  void drain();

  bool draining() const;
  bool degraded() const;
  std::int64_t queue_depth() const;

  /// Monotonic counters since construction. Each outcome count is mirrored
  /// by a serve.<field> registry counter; serve.rejected sums rejected_full
  /// and rejected_draining, queue_depth_peak is the serve.queue_depth_peak
  /// gauge, and submitted / batches have no registry twin. `batches`
  /// counts forwards (one request each); it stays because the end-to-end
  /// benchmark reports completed / batches as the served batch size.
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected_full = 0;
    std::uint64_t rejected_draining = 0;
    std::uint64_t invalid = 0;
    std::uint64_t completed = 0;
    std::uint64_t expired = 0;
    std::uint64_t shed = 0;
    std::uint64_t errors = 0;
    std::uint64_t degraded_entries = 0;
    std::uint64_t batches = 0;
    std::int64_t queue_depth_peak = 0;
    /// Every accepted request reached exactly one terminal state.
    std::uint64_t responses() const {
      return completed + expired + shed + errors;
    }
  };
  Stats stats() const;

 private:
  struct Pending {
    Request req;
    ResponseFn done;
    std::uint64_t enqueue_ns = 0;
    std::uint64_t deadline_ns = 0;
    std::uint64_t dequeue_ns = 0;  ///< 0 unless dequeued for a forward
  };

  /// Named for the thread ("serve-batcher") the end-to-end benchmark
  /// attributes kernel spans to.
  void batcher_loop();
  /// Evaluate the overload state machine; returns requests shed from the
  /// queue (respond after unlocking).
  std::vector<Pending> update_overload_locked();
  void respond(Pending&& item, Status status, Tensor label,
               std::string error);

  const FrozenModel& model_;
  ServeConfig config_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< producers / drain() -> batcher
  std::deque<Pending> queue_;
  bool draining_ = false;
  bool degraded_ = false;
  int over_cycles_ = 0;
  Stats stats_;
  std::thread batcher_;
};

}  // namespace sdmpeb::serve

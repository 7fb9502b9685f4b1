// Multi-threaded open-loop soak of the serving runtime with all three
// serve.* fault sites armed (DESIGN.md §13). Producers submit on a fixed
// clock at several times the tiny model's capacity, so the run exercises
// queue-full rejection, deadline expiry, overload degradation + shedding,
// injected slow forwards, injected admission rejections, and injected
// request corruption — all at once. The invariants checked at the end are
// the serving contract itself:
//   - no deadlock: the run finishes and drain() returns;
//   - exactly-once: every accepted id gets exactly one response, rejected
//     ids get none, and accepted == completed + expired + shed + errors;
//   - bounded queue: observed depth never exceeds queue_capacity;
//   - bounded memory: once warm, steady state allocates no new workspace-
//     arena backing blocks.
//
// Duration comes from SDMPEB_SERVE_SOAK_SECONDS (default 3; the CI serving
// job runs 30 under ASan+UBSan).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/arena.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "nn/serialize.hpp"
#include "serve/frozen_model.hpp"
#include "serve/serve.hpp"

namespace sdmpeb {
namespace {

double soak_seconds() {
  const char* env = std::getenv("SDMPEB_SERVE_SOAK_SECONDS");
  if (!env || !*env) return 3.0;
  const double s = std::strtod(env, nullptr);
  return s > 0.0 ? s : 3.0;
}

TEST(ServeSoak, OpenLoopOverloadWithAllFaultSitesArmed) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("sdmpeb_serve_soak_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string ckpt = (dir / "tiny.ckpt").string();
  Rng rng(13);
  const auto net = serve::make_peb_net("sdm", serve::ModelScale::kTiny, rng);
  nn::save_parameters(*net, ckpt);
  const serve::FrozenModel model("sdm", serve::ModelScale::kTiny, ckpt,
                                 Shape{2, 8, 8});

  fault::configure(
      "serve.slow_infer:0.05,serve.queue_reject:0.02,"
      "serve.corrupt_request:0.02",
      17);

  serve::ServeConfig config;
  config.queue_capacity = 32;
  config.default_deadline_ms = 200.0;
  config.fault_slow_infer_ms = 5.0;
  serve::ServeRuntime runtime(model, config);

  // Ledger: accepted ids await exactly one response; rejected ids none.
  std::mutex mu;
  std::unordered_set<std::uint64_t> accepted;
  std::unordered_map<std::uint64_t, int> responded;
  std::uint64_t rejected = 0, invalid = 0;

  const double seconds = soak_seconds();
  constexpr int kProducers = 4;
  // ~1 ms per submit per producer = 4k clips/sec offered, comfortably past
  // the tiny model's capacity on any box once slow_infer stalls land.
  const auto period = std::chrono::microseconds(1000);
  const auto t_end = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);

  std::atomic<std::int64_t> depth_peak{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const Tensor acid = Tensor::full(Shape{2, 8, 8}, 0.25f);
      std::uint64_t id = static_cast<std::uint64_t>(p + 1) << 32;
      while (std::chrono::steady_clock::now() < t_end) {
        serve::Request req;
        req.id = ++id;
        req.priority = static_cast<std::int32_t>(id % 3);
        req.acid = acid;
        const std::uint64_t this_id = req.id;
        const auto verdict =
            runtime.submit(std::move(req), [&, this_id](serve::Response resp) {
              std::lock_guard<std::mutex> lock(mu);
              EXPECT_EQ(resp.id, this_id);
              ++responded[this_id];
            });
        {
          std::lock_guard<std::mutex> lock(mu);
          if (verdict.accepted) {
            accepted.insert(this_id);
          } else if (verdict.status == serve::Status::kInvalid) {
            ++invalid;
          } else {
            ++rejected;
          }
        }
        const std::int64_t depth = runtime.queue_depth();
        std::int64_t prev = depth_peak.load();
        while (depth > prev && !depth_peak.compare_exchange_weak(prev, depth)) {
        }
        std::this_thread::sleep_for(period);
      }
    });
  }

  // Memory bound: after a warm-up third of the run, the arena chain must
  // stop growing — identical forwards reuse the sized blocks.
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds / 3.0));
  const std::uint64_t warm_blocks = WorkspaceArena::total_heap_blocks();

  for (auto& t : producers) t.join();
  runtime.drain();

  EXPECT_EQ(WorkspaceArena::total_heap_blocks(), warm_blocks)
      << "arena backing blocks grew after warm-up";
  EXPECT_LE(depth_peak.load(), config.queue_capacity)
      << "queue depth exceeded the bounded capacity";

  std::lock_guard<std::mutex> lock(mu);
  // Exactly-once: every accepted id responded once, nothing else responded.
  for (const auto id : accepted)
    EXPECT_EQ(responded.count(id), 1u) << "accepted id " << id << " lost";
  for (const auto& [id, count] : responded) {
    EXPECT_EQ(count, 1) << "id " << id << " answered " << count << " times";
    EXPECT_EQ(accepted.count(id), 1u)
        << "response for an id that was never accepted";
  }

  const auto stats = runtime.stats();
  EXPECT_EQ(stats.accepted, accepted.size());
  EXPECT_EQ(stats.responses(), stats.accepted)
      << "completed + expired + shed + errors must equal accepted";
  EXPECT_EQ(stats.rejected_full + stats.rejected_draining, rejected);
  EXPECT_EQ(stats.invalid, invalid);
  EXPECT_EQ(stats.submitted,
            stats.accepted + stats.rejected_full + stats.rejected_draining +
                stats.invalid);
  EXPECT_GT(stats.completed, 0u) << "soak completed no work at all";

  // The armed fault sites all actually fired (thousands of draws at these
  // probabilities; a silent site means the spec quietly disarmed).
  EXPECT_GT(fault::fired_count("serve.queue_reject"), 0u);
  EXPECT_GT(fault::fired_count("serve.corrupt_request"), 0u);
  EXPECT_GT(fault::fired_count("serve.slow_infer"), 0u);
  EXPECT_EQ(stats.invalid, fault::fired_count("serve.corrupt_request"));

  fault::clear();
  std::filesystem::remove_all(dir);

  std::printf(
      "soak %.1fs: submitted=%llu accepted=%llu completed=%llu expired=%llu "
      "shed=%llu rejected=%llu invalid=%llu batches=%llu depth_peak=%lld "
      "degraded_entries=%llu\n",
      seconds, static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.expired),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.rejected_full),
      static_cast<unsigned long long>(stats.invalid),
      static_cast<unsigned long long>(stats.batches),
      static_cast<long long>(stats.queue_depth_peak),
      static_cast<unsigned long long>(stats.degraded_entries));
}

}  // namespace
}  // namespace sdmpeb

// Serving-stack unit tests (DESIGN.md §13): frozen-model forward path
// (tape-free, arena-stable), wire protocol framing (round-trip + the
// malformed-frame matrix and seeded mutants), and the ServeRuntime
// robustness contract — bounded admission, deadline expiry while queued,
// overload shedding by priority, exactly-once responses across drain, and
// the serve.* fault-injection sites. The open-loop stress companion lives
// in serve_soak_test.cpp.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arena_check.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/obs.hpp"
#include "common/rng.hpp"
#include "mutate.hpp"
#include "nn/serialize.hpp"
#include "serve/frozen_model.hpp"
#include "serve/protocol.hpp"
#include "serve/serve.hpp"

namespace sdmpeb {
namespace {

using sdmpeb::testing::expect_mutants_round_trip_or_throw;
using sdmpeb::testing::expect_steady_state_no_alloc;

bool same_data(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::equal(a.data().begin(), a.data().end(), b.data().begin());
}

/// The serve.* registry counters, keyed by the name after "serve.".
std::map<std::string, std::uint64_t> serve_counters() {
  std::map<std::string, std::uint64_t> values;
  for (const char* name : {"accepted", "rejected", "invalid", "completed",
                           "expired", "shed", "errors", "degraded_entries"})
    values[name] = obs::counter(std::string("serve.") + name).value();
  return values;
}

/// Shared tiny checkpoint + frozen model: FrozenModel construction runs a
/// warm-up forward, so build it once for the whole suite.
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("sdmpeb_serve_test_" + std::to_string(::getpid())));
    std::filesystem::create_directories(*dir_);
    ckpt_ = new std::string((*dir_ / "tiny.ckpt").string());
    Rng rng(3);
    const auto model =
        serve::make_peb_net("sdm", serve::ModelScale::kTiny, rng);
    nn::save_parameters(*model, *ckpt_);
    frozen_ = new serve::FrozenModel("sdm", serve::ModelScale::kTiny, *ckpt_,
                                     Shape{2, 8, 8});
  }
  static void TearDownTestSuite() {
    delete frozen_;
    frozen_ = nullptr;
    std::filesystem::remove_all(*dir_);
    delete ckpt_;
    ckpt_ = nullptr;
    delete dir_;
    dir_ = nullptr;
  }
  void SetUp() override { fault::clear(); }
  void TearDown() override { fault::clear(); }

  static Tensor good_acid() { return Tensor::full(Shape{2, 8, 8}, 0.25f); }

  /// Collects responses and lets tests block until a count arrives.
  struct Collector {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<serve::Response> responses;
    serve::ResponseFn fn() {
      return [this](serve::Response resp) {
        std::lock_guard<std::mutex> lock(mu);
        responses.push_back(std::move(resp));
        cv.notify_all();
      };
    }
    bool wait_for(std::size_t n, int seconds = 30) {
      std::unique_lock<std::mutex> lock(mu);
      return cv.wait_for(lock, std::chrono::seconds(seconds),
                         [&] { return responses.size() >= n; });
    }
    const serve::Response& by_id(std::uint64_t id) {
      std::lock_guard<std::mutex> lock(mu);
      for (const auto& resp : responses)
        if (resp.id == id) return resp;
      ADD_FAILURE() << "no response for id " << id;
      static serve::Response none;
      return none;
    }
  };

  static std::filesystem::path* dir_;
  static std::string* ckpt_;
  static serve::FrozenModel* frozen_;
};

std::filesystem::path* ServeTest::dir_ = nullptr;
std::string* ServeTest::ckpt_ = nullptr;
serve::FrozenModel* ServeTest::frozen_ = nullptr;

// ---------------------------------------------------------------------------
// Frozen-model forward path

TEST_F(ServeTest, FrozenModelInferIsDeterministicAndShapePinned) {
  const Tensor a = frozen_->infer(good_acid());
  const Tensor b = frozen_->infer(good_acid());
  ASSERT_TRUE(a.shape() == Shape({2, 8, 8}));
  EXPECT_TRUE(same_data(a, b));
  EXPECT_GT(frozen_->parameter_count(), 0);
  EXPECT_EQ(frozen_->name(), "SDM-PEB");  // the architecture's display name

  // Wrong shape is refused by the frozen plan, not forwarded.
  EXPECT_THROW(frozen_->infer(Tensor::zeros(Shape{2, 8, 4})), Error);
}

TEST_F(ServeTest, FrozenForwardBuildsNoTape) {
  // The serving forward must not build an autograd tape. Reproduce what
  // FrozenModel does — freeze every parameter — and pin the graph shape:
  // the output node has no parents and no gradient demand.
  Rng rng(3);
  const auto model = serve::make_peb_net("sdm", serve::ModelScale::kTiny, rng);
  nn::load_parameters(*model, *ckpt_);
  for (const auto& p : model->parameters()) p->set_requires_grad(false);
  const nn::Value out =
      model->forward(nn::constant(Tensor::zeros(Shape{1, 2, 8, 8})));
  EXPECT_FALSE(out->requires_grad());
  EXPECT_TRUE(out->parents().empty());

  // Sanity check on the instrument itself: with gradients on, the same
  // forward does wire the tape.
  const auto tracked =
      serve::make_peb_net("sdm", serve::ModelScale::kTiny, rng);
  const nn::Value tracked_out =
      tracked->forward(nn::constant(Tensor::zeros(Shape{1, 2, 8, 8})));
  EXPECT_TRUE(tracked_out->requires_grad());
  EXPECT_FALSE(tracked_out->parents().empty());
}

TEST_F(ServeTest, FrozenInferenceIsArenaStableAfterWarmup) {
  // The constructor's warm-up forward sizes the workspace-arena chain;
  // steady-state inference must stop allocating new backing blocks. A pool
  // worker's arena may warm late, so the helper bounds growth events.
  expect_steady_state_no_alloc([] { (void)frozen_->infer(good_acid()); });
}

// ---------------------------------------------------------------------------
// Wire protocol

TEST(ServeProtocol, RequestAndResponseRoundTrip) {
  serve::RequestFrame req;
  req.id = 0xDEADBEEFCAFEULL;
  req.priority = -3;
  req.deadline_ms = 250;
  req.acid = Tensor::full(Shape{2, 3, 4}, 1.5f);
  const auto req_bytes = serve::encode_request(req);
  const auto req2 = serve::decode_request(req_bytes);
  EXPECT_EQ(req2.id, req.id);
  EXPECT_EQ(req2.priority, req.priority);
  EXPECT_EQ(req2.deadline_ms, req.deadline_ms);
  EXPECT_TRUE(same_data(req2.acid, req.acid));

  serve::ResponseFrame ok;
  ok.id = 7;
  ok.status = serve::Status::kOk;
  ok.label = Tensor::full(Shape{2, 3, 4}, -0.25f);
  const auto ok_bytes = serve::encode_response(ok);
  const auto ok2 = serve::decode_response(ok_bytes);
  EXPECT_EQ(ok2.id, 7u);
  EXPECT_EQ(ok2.status, serve::Status::kOk);
  EXPECT_TRUE(same_data(ok2.label, ok.label));

  serve::ResponseFrame err;
  err.id = 8;
  err.status = serve::Status::kExpired;
  err.error = "deadline expired while queued";
  const auto err_bytes = serve::encode_response(err);
  const auto err2 = serve::decode_response(err_bytes);
  EXPECT_EQ(err2.status, serve::Status::kExpired);
  EXPECT_EQ(err2.error, err.error);
}

TEST(ServeProtocol, MalformedFramesAreRejected) {
  serve::RequestFrame req;
  req.id = 1;
  req.acid = Tensor::full(Shape{2, 3, 4}, 1.0f);
  const auto bytes = serve::encode_request(req);

  // Truncation at every prefix boundary of the fixed header plus a cut in
  // the volume data: all must throw, never read out of bounds.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{3}, std::size_t{4}, std::size_t{11},
        std::size_t{15}, std::size_t{19}, std::size_t{23}, std::size_t{27},
        bytes.size() - 1}) {
    ASSERT_LT(cut, bytes.size());
    EXPECT_THROW(serve::decode_request(bytes.substr(0, cut)), Error)
        << "truncation to " << cut << " bytes was accepted";
  }

  // Wrong magic.
  auto junk = bytes;
  junk[0] = 'J';
  EXPECT_THROW(serve::decode_request(junk), Error);

  // Zero and oversized dimensions (d lives at payload offset 20).
  auto zero_dim = bytes;
  for (int i = 0; i < 4; ++i) zero_dim[20 + i] = '\0';
  EXPECT_THROW(serve::decode_request(zero_dim), Error);
  auto huge_dim = bytes;
  huge_dim[20] = static_cast<char>(0xFF);
  huge_dim[21] = static_cast<char>(0xFF);
  EXPECT_THROW(serve::decode_request(huge_dim), Error);

  // Trailing bytes beyond the declared volume.
  auto padded = bytes;
  padded.push_back('\0');
  EXPECT_THROW(serve::decode_request(padded), Error);

  // Response side: bad magic and an out-of-range status code.
  serve::ResponseFrame resp;
  resp.id = 2;
  resp.status = serve::Status::kOk;
  resp.label = Tensor::zeros(Shape{1, 1, 1});
  const auto resp_bytes = serve::encode_response(resp);
  auto bad_magic = resp_bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(serve::decode_response(bad_magic), Error);
  auto bad_status = resp_bytes;
  bad_status[12] = 99;  // status lives at payload offset 12
  EXPECT_THROW(serve::decode_response(bad_status), Error);
}

TEST(ServeProtocol, SeededMutantsRoundTripOrThrow) {
  // Byte flips, truncations, trailing bytes and lying sizes. Request dims
  // sit at payload offsets 20/24/28; a response's status at 12, its dims
  // at 16/20/24.
  constexpr int kMutants = 20000;
  serve::RequestFrame req;
  req.id = 42;
  req.priority = -2;
  req.deadline_ms = 250;
  req.acid = Tensor::full(Shape{2, 3, 4}, 0.5f);
  expect_mutants_round_trip_or_throw(
      serve::encode_request(req), {{20, 4}, {24, 4}, {28, 4}}, kMutants,
      serve::decode_request, serve::encode_request);

  const std::vector<testing::SizeField> response_fields = {
      {12, 4}, {16, 4}, {20, 4}, {24, 4}};
  serve::ResponseFrame ok;
  ok.id = 42;
  ok.status = serve::Status::kOk;
  ok.label = Tensor::full(Shape{2, 3, 4}, -0.25f);
  expect_mutants_round_trip_or_throw(serve::encode_response(ok),
                                    response_fields, kMutants,
                                    serve::decode_response,
                                    serve::encode_response);
  serve::ResponseFrame expired;
  expired.id = 43;
  expired.status = serve::Status::kExpired;
  expired.error = "deadline expired while queued";
  expect_mutants_round_trip_or_throw(serve::encode_response(expired),
                                    response_fields, kMutants,
                                    serve::decode_response,
                                    serve::encode_response);
}

// ---------------------------------------------------------------------------
// ServeRuntime

TEST_F(ServeTest, ConfigValidationRejectsNonsense) {
  serve::ServeConfig config;
  config.queue_capacity = 0;
  EXPECT_THROW(serve::ServeRuntime(*frozen_, config), Error);
  config = {};
  config.default_deadline_ms = 0.0;
  EXPECT_THROW(serve::ServeRuntime(*frozen_, config), Error);
}

TEST_F(ServeTest, AcceptedRequestsCompleteExactlyOnce) {
  serve::ServeRuntime runtime(*frozen_, serve::ServeConfig{});
  Collector out;
  constexpr int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    serve::Request req;
    req.id = static_cast<std::uint64_t>(i);
    req.acid = good_acid();
    const auto verdict = runtime.submit(std::move(req), out.fn());
    ASSERT_TRUE(verdict.accepted) << verdict.reason;
  }
  ASSERT_TRUE(out.wait_for(kRequests));
  runtime.drain();

  std::map<std::uint64_t, int> seen;
  for (const auto& resp : out.responses) {
    ++seen[resp.id];
    EXPECT_EQ(resp.status, serve::Status::kOk) << resp.error;
    EXPECT_TRUE(resp.label.shape() == Shape({2, 8, 8}));
    EXPECT_GE(resp.total_ms, resp.queue_ms);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kRequests));
  for (const auto& [id, count] : seen) EXPECT_EQ(count, 1) << "id " << id;
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.responses(), stats.accepted);
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
}

TEST_F(ServeTest, InvalidPayloadsAreRejectedSynchronously) {
  serve::ServeRuntime runtime(*frozen_, serve::ServeConfig{});
  std::atomic<int> callbacks{0};
  const auto never = [&](serve::Response) { ++callbacks; };

  serve::Request wrong_shape;
  wrong_shape.id = 1;
  wrong_shape.acid = Tensor::zeros(Shape{4, 4, 4});
  auto verdict = runtime.submit(std::move(wrong_shape), never);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.status, serve::Status::kInvalid);
  EXPECT_NE(verdict.reason.find("shape"), std::string::npos);

  serve::Request poisoned;
  poisoned.id = 2;
  poisoned.acid = good_acid();
  poisoned.acid[0] = std::numeric_limits<float>::quiet_NaN();
  verdict = runtime.submit(std::move(poisoned), never);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.status, serve::Status::kInvalid);
  EXPECT_NE(verdict.reason.find("non-finite"), std::string::npos);

  runtime.drain();
  EXPECT_EQ(callbacks.load(), 0);  // rejected work never gets a callback
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.invalid, 2u);
  EXPECT_EQ(stats.accepted, 0u);
}

TEST_F(ServeTest, BoundedQueueRejectsWhenFull) {
  // Stall the batcher deterministically with the slow_infer fault so the
  // queue can be filled while one item is in flight.
  fault::configure("serve.slow_infer:1", 5);
  serve::ServeConfig config;
  config.queue_capacity = 2;
  config.fault_slow_infer_ms = 300.0;
  serve::ServeRuntime runtime(*frozen_, config);
  Collector out;

  const auto submit = [&](std::uint64_t id) {
    serve::Request req;
    req.id = id;
    req.acid = good_acid();
    return runtime.submit(std::move(req), out.fn());
  };
  ASSERT_TRUE(submit(0).accepted);  // enters the batcher, stalls 300 ms
  // Give the batcher time to dequeue id 0 so capacity is exactly 2 again.
  const auto t0 = std::chrono::steady_clock::now();
  while (runtime.queue_depth() > 0 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(submit(1).accepted);
  ASSERT_TRUE(submit(2).accepted);
  const auto verdict = submit(3);  // queue now holds 2 of 2
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.status, serve::Status::kRejectedFull);
  EXPECT_NE(verdict.reason.find("capacity"), std::string::npos);

  runtime.drain();
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.rejected_full, 1u);
  EXPECT_EQ(stats.responses(), 3u);
}

TEST_F(ServeTest, DeadlineExpiresWhileQueued) {
  fault::configure("serve.slow_infer:1", 5);
  serve::ServeConfig config;
  config.fault_slow_infer_ms = 120.0;
  const auto counters_before = serve_counters();
  serve::ServeRuntime runtime(*frozen_, config);
  Collector out;

  // Item 0 stalls 120 ms before its forward; item 1's 80 ms deadline runs
  // out while it waits behind it -> expired at dequeue, "while queued".
  serve::Request plug;
  plug.id = 0;
  plug.deadline_ms = 10000.0;
  plug.acid = good_acid();
  ASSERT_TRUE(runtime.submit(std::move(plug), out.fn()).accepted);
  serve::Request late;
  late.id = 1;
  late.deadline_ms = 80.0;
  late.acid = good_acid();
  ASSERT_TRUE(runtime.submit(std::move(late), out.fn()).accepted);
  ASSERT_TRUE(out.wait_for(2));
  runtime.drain();

  EXPECT_EQ(out.by_id(0).status, serve::Status::kOk);
  EXPECT_EQ(out.by_id(1).status, serve::Status::kExpired);
  EXPECT_NE(out.by_id(1).error.find("while queued"), std::string::npos);
  // The stall fires on every forward: one firing means item 1 never
  // reached the model.
  EXPECT_EQ(fault::fired_count("serve.slow_infer"), 1u);
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.responses(), stats.accepted);

  // The registry mirrors Stats: an expiry counts once, under serve.expired.
  auto delta = serve_counters();
  for (auto& [name, value] : delta) value -= counters_before.at(name);
  EXPECT_EQ(delta["accepted"], stats.accepted);
  EXPECT_EQ(delta["rejected"], stats.rejected_full + stats.rejected_draining);
  EXPECT_EQ(delta["invalid"], stats.invalid);
  EXPECT_EQ(delta["completed"], stats.completed);
  EXPECT_EQ(delta["expired"], stats.expired);
  EXPECT_EQ(delta["shed"], stats.shed);
  EXPECT_EQ(delta["errors"], stats.errors);
  EXPECT_EQ(delta["degraded_entries"], stats.degraded_entries);
}

TEST_F(ServeTest, SustainedOverloadShedsLowestPriorityFirst) {
  fault::configure("serve.slow_infer:1", 5);
  serve::ServeConfig config;
  config.queue_capacity = 8;
  config.fault_slow_infer_ms = 300.0;
  config.default_deadline_ms = 60000.0;  // expiry must not mask shedding
  serve::ServeRuntime runtime(*frozen_, config);
  Collector out;

  // Item 100 stalls in the batcher while eight requests with priorities
  // 0..7 fill the queue. Dequeues at depths 8, 7 and 6 are all at or above
  // 3/4 of capacity: the first two take priorities 0 and 1, the third
  // degrades and sheds the lowest priorities down to the low watermark
  // (1/4 of capacity, 2 left), then 6 and 7 run.
  serve::Request plug;
  plug.id = 100;
  plug.priority = 9;
  plug.acid = good_acid();
  ASSERT_TRUE(runtime.submit(std::move(plug), out.fn()).accepted);
  const auto t0 = std::chrono::steady_clock::now();
  while (runtime.queue_depth() > 0 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (int p = 0; p < 8; ++p) {
    serve::Request req;
    req.id = static_cast<std::uint64_t>(p);
    req.priority = p;
    req.acid = good_acid();
    ASSERT_TRUE(runtime.submit(std::move(req), out.fn()).accepted);
  }
  ASSERT_TRUE(out.wait_for(9));
  runtime.drain();

  for (std::uint64_t id : {100u, 0u, 1u, 6u, 7u})
    EXPECT_EQ(out.by_id(id).status, serve::Status::kOk) << "id " << id;
  for (std::uint64_t id : {2u, 3u, 4u, 5u}) {
    EXPECT_EQ(out.by_id(id).status, serve::Status::kShed) << "id " << id;
    EXPECT_NE(out.by_id(id).error.find("overload"), std::string::npos);
  }
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.shed, 4u);
  EXPECT_EQ(stats.degraded_entries, 1u);
  EXPECT_EQ(stats.responses(), stats.accepted);
}

TEST_F(ServeTest, DrainDeliversEverythingThenRejects) {
  fault::configure("serve.slow_infer:1", 5);
  serve::ServeConfig config;
  config.fault_slow_infer_ms = 10.0;
  serve::ServeRuntime runtime(*frozen_, config);
  Collector out;
  constexpr int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) {
    serve::Request req;
    req.id = static_cast<std::uint64_t>(i);
    req.acid = good_acid();
    ASSERT_TRUE(runtime.submit(std::move(req), out.fn()).accepted);
  }
  runtime.drain();  // returns only once every queued request is answered

  ASSERT_EQ(out.responses.size(), static_cast<std::size_t>(kRequests));
  std::map<std::uint64_t, int> seen;
  for (const auto& resp : out.responses) {
    ++seen[resp.id];
    EXPECT_EQ(resp.status, serve::Status::kOk) << resp.error;
  }
  for (const auto& [id, count] : seen) EXPECT_EQ(count, 1) << "id " << id;

  // Post-drain admission is refused with the draining status.
  serve::Request late;
  late.id = 99;
  late.acid = good_acid();
  const auto verdict = runtime.submit(std::move(late), out.fn());
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.status, serve::Status::kRejectedDraining);
  EXPECT_TRUE(runtime.draining());
  EXPECT_EQ(runtime.stats().rejected_draining, 1u);

  // drain() is idempotent.
  runtime.drain();
}

TEST_F(ServeTest, QueueRejectFaultRejectsAsIfFull) {
  fault::configure("serve.queue_reject:1", 5);
  serve::ServeRuntime runtime(*frozen_, serve::ServeConfig{});
  std::atomic<int> callbacks{0};
  serve::Request req;
  req.id = 1;
  req.acid = good_acid();
  const auto verdict =
      runtime.submit(std::move(req), [&](serve::Response) { ++callbacks; });
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.status, serve::Status::kRejectedFull);
  EXPECT_NE(verdict.reason.find("injected"), std::string::npos);
  runtime.drain();
  EXPECT_EQ(callbacks.load(), 0);
  EXPECT_EQ(fault::fired_count("serve.queue_reject"), 1u);
}

TEST_F(ServeTest, CorruptRequestFaultIsCaughtByAdmissionValidation) {
  fault::configure("serve.corrupt_request:1", 5);
  serve::ServeRuntime runtime(*frozen_, serve::ServeConfig{});
  std::atomic<int> callbacks{0};
  serve::Request req;
  req.id = 1;
  req.acid = good_acid();  // perfectly finite on the way in
  const auto verdict =
      runtime.submit(std::move(req), [&](serve::Response) { ++callbacks; });
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.status, serve::Status::kInvalid);
  EXPECT_NE(verdict.reason.find("non-finite"), std::string::npos);
  runtime.drain();
  EXPECT_EQ(callbacks.load(), 0);
  EXPECT_EQ(fault::fired_count("serve.corrupt_request"), 1u);
  EXPECT_EQ(runtime.stats().invalid, 1u);
}

TEST(ServeStatus, NamesCoverEveryCode) {
  EXPECT_STREQ(serve::status_name(serve::Status::kOk), "ok");
  EXPECT_STREQ(serve::status_name(serve::Status::kRejectedFull),
               "rejected_full");
  EXPECT_STREQ(serve::status_name(serve::Status::kRejectedDraining),
               "rejected_draining");
  EXPECT_STREQ(serve::status_name(serve::Status::kInvalid), "invalid");
  EXPECT_STREQ(serve::status_name(serve::Status::kExpired), "expired");
  EXPECT_STREQ(serve::status_name(serve::Status::kShed), "shed");
  EXPECT_STREQ(serve::status_name(serve::Status::kError), "error");
}

}  // namespace
}  // namespace sdmpeb

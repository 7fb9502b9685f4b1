#pragma once

#include <chrono>

namespace sdmpeb {

/// Monotonic wall-clock stopwatch used by the benchmark harnesses to report
/// per-phase runtimes. It starts at construction; reset() restarts it.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restart from zero.
  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double milliseconds() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;

  Clock::time_point start_;
};

}  // namespace sdmpeb

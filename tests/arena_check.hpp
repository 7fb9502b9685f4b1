#pragma once

#include <functional>

#include <gtest/gtest.h>

#include "common/arena.hpp"

namespace sdmpeb::testing {

/// Run `step` repeatedly and require the global heap-block count to stop
/// growing. Chunk-to-thread assignment is scheduling-dependent, so a pool
/// worker's arena may stay cold for an arbitrary number of repeats and then
/// allocate its first block late — that is warm-up, not a leak. The leak
/// signature is growth proportional to the iteration count, so instead of
/// demanding a fixed quiet window we bound the number of growth EVENTS: a
/// few per participating thread for warm-up, versus ~kSteps for a
/// per-iteration leak.
inline void expect_steady_state_no_alloc(const std::function<void()>& step) {
  constexpr int kSteps = 200;
  auto blocks = WorkspaceArena::total_heap_blocks();
  int growth_events = 0;
  for (int i = 0; i < kSteps; ++i) {
    step();
    const auto now = WorkspaceArena::total_heap_blocks();
    if (now != blocks) ++growth_events;
    blocks = now;
  }
  EXPECT_LE(growth_events, 8) << "arena keeps allocating in steady state";
}

}  // namespace sdmpeb::testing

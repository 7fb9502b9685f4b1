#pragma once

// Deterministic fault injection for robustness testing (DESIGN.md §10).
//
// Sites are dotted lowercase names baked into the code at the point where a
// failure can be simulated:
//
//   io.write      atomic_write_file aborts mid-payload (truncated temp file)
//   io.bitflip    one payload bit flipped before the write (CRC must catch)
//   grad.nan      trainer poisons one accumulated gradient with a NaN
//   peb.diverge   PEB solver poisons one acid cell after the diffusion
//                 sweep (the closing reaction pass's guard must see it)
//   serve.slow_infer       serving batcher stalls one forward (backlog)
//   serve.queue_reject     one admission rejected as if the queue were full
//   serve.corrupt_request  one request payload value poisoned with a NaN
//                          (admission validation must catch it)
//
// Configuration comes from the environment —
//
//   SDMPEB_FAULTS=site:prob,site:prob   e.g. "grad.nan:0.2,io.bitflip:1"
//   SDMPEB_FAULTS_SEED=N                deterministic firing stream (default 1)
//
// — or programmatically via configure() (tests). Firing is driven by a
// dedicated seeded xoshiro stream, so a given (spec, seed) pair fires the
// same faults at the same call sequence on every run.
//
// Cost contract: with no faults configured (the default), should_fire() is
// one relaxed atomic load plus a predicted-taken branch — the same bargain
// as obs::trace_enabled(), safe on any hot path. Defining
// SDMPEB_DISABLE_FAULTS compiles every site to a constant false.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace sdmpeb::fault {

namespace detail {
extern std::atomic<bool> g_faults_on;
bool should_fire_slow(const char* site);
}  // namespace detail

/// True when any fault site is armed.
inline bool enabled() {
#ifdef SDMPEB_DISABLE_FAULTS
  return false;
#else
  return detail::g_faults_on.load(std::memory_order_relaxed);
#endif
}

/// Deterministic Bernoulli draw for `site`; always false when the site is
/// not configured. Every call advances the injector stream only when
/// injection is enabled, so production runs are bit-identical with and
/// without the instrumentation in place.
inline bool should_fire(const char* site) {
  if (!enabled()) return false;
  return detail::should_fire_slow(site);
}

/// Deterministic index in [0, n) from the injector stream (payload byte /
/// bit selection). Requires n > 0.
std::size_t draw_index(std::size_t n);

/// Arm sites from a spec string ("site:prob,site:prob"). Replaces any
/// previous configuration (including the environment's). Malformed entries
/// (missing ':prob', empty site, non-numeric / non-finite / out-of-[0,1]
/// probability) throw sdmpeb::Error and leave everything disarmed — a typo
/// must never silently soften a soak. An empty spec disarms everything.
void configure(const std::string& spec, std::uint64_t seed);

/// Disarm all sites and reset fired counters.
void clear();

/// How many times `site` has fired since the last configure()/clear().
/// Mirrored into the metrics registry as counter "fault.<site>".
std::uint64_t fired_count(const std::string& site);

}  // namespace sdmpeb::fault

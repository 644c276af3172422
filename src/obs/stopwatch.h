#pragma once

#include <chrono>
#include <cstdint>

// The one timing primitive of the repository. Every wall-clock measurement
// -- the run-summary table, chunk spans, shard dump latencies, the
// perfbench runner -- goes through obs::Stopwatch so the clock choice is
// made exactly once: std::chrono::steady_clock, which is monotonic (never
// jumps on NTP adjustments) and measures wall time, not CPU time. Mixing
// system_clock (jumpy) or std::clock (CPU time, scales with thread count)
// into a timing column is the classic observability bug this header exists
// to prevent.

namespace mram::obs {

class Stopwatch {
 public:
  using clock = std::chrono::steady_clock;

  Stopwatch() : start_(clock::now()) {}

  /// Restarts the measurement window at now.
  void reset() { start_ = clock::now(); }

  /// Elapsed wall time in seconds since construction / reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  /// Elapsed wall time in integer nanoseconds -- the unit every metrics
  /// counter and histogram stores, because integer nanoseconds merge
  /// exactly (no floating-point reassociation) in any fold order.
  std::uint64_t nanos() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             start_)
            .count());
  }

  /// The raw start point (for span records that need an absolute anchor).
  clock::time_point start() const { return start_; }

 private:
  clock::time_point start_;
};

}  // namespace mram::obs

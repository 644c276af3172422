#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>

#include "obs/stopwatch.h"

// Live progress reporting + the serialized stderr writer.
//
// Two jobs, one mutex:
//
//   1. `print()` is the single gate every status write (summary table, FAIL
//      lines, perf notes) goes through, so diagnostics can never interleave
//      mid-line -- with each other or with the live progress line.
//   2. When live mode is on (`--progress` without `--quiet`), a one-line
//      trials/ETA display is redrawn in place (\r + erase-to-end) and
//      temporarily cleared around every print(), so result tables stay
//      clean even while the line is animating.
//
// Progress state is fed from worker threads through relaxed atomics
// (trials done / total); redraws are throttled to ~8 Hz and only the
// winning ticker takes the mutex. Like the metrics layer, ticking draws no
// randomness and never changes engine control flow, so enabling --progress
// cannot perturb results.
//
// ETA comes from the current runner call: the runner announces its total
// trial count up front (begin_call), workers tick completed trials per
// chunk, and the display extrapolates the remaining time from the observed
// trial rate. The scenario index/count prefix ("[2/7] wer_deep") frames
// the call-level bar.

namespace mram::obs {

class Progress {
 public:
  /// `live` enables the in-place progress line; when false, print() is just
  /// a serialized pass-through to `err`.
  Progress(std::ostream& err, bool live);
  ~Progress();

  Progress(const Progress&) = delete;
  Progress& operator=(const Progress&) = delete;

  /// Serialized status write: clears the live line, writes `text` verbatim,
  /// redraws the live line. The one path to stderr while a run is active.
  void print(const std::string& text);

  /// Marks scenario `index` (0-based) of `count` as active.
  void begin_scenario(const std::string& name, std::size_t index,
                      std::size_t count);
  void end_scenario();

  /// A runner call with `trials` total trials is starting (resets the bar).
  void begin_call(std::uint64_t trials);

  /// Worker tick: `n` more trials finished. Throttled redraw.
  void add_trials(std::uint64_t n);

  /// Clears the live line for good (end of run).
  void finish();

  bool live() const { return live_; }

  /// Bar state, exposed for tests of the ETA math: total trials announced
  /// by the current call and trials ticked so far.
  std::uint64_t trials_total() const {
    return trials_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t trials_done() const {
    return trials_done_.load(std::memory_order_relaxed);
  }

 private:
  void redraw_locked();
  std::string render_line();

  std::ostream& err_;
  const bool live_;
  std::mutex mutex_;  ///< serializes all writes to err_ + the label strings
  std::string scenario_;  ///< guarded by mutex_
  std::size_t scenario_index_ = 0;
  std::size_t scenario_count_ = 0;
  bool line_visible_ = false;  ///< guarded by mutex_

  std::atomic<std::uint64_t> trials_total_{0};
  std::atomic<std::uint64_t> trials_done_{0};
  std::atomic<std::uint64_t> last_draw_ns_{0};
  Stopwatch call_clock_;  ///< restarted by begin_call (main thread only)
};

namespace detail {
extern std::atomic<Progress*> g_progress;
}  // namespace detail

inline Progress* progress() {
  return detail::g_progress.load(std::memory_order_acquire);
}

inline void set_progress(Progress* p) {
  detail::g_progress.store(p, std::memory_order_release);
}

/// RAII install/remove of the process-wide progress gate.
class ScopedProgress {
 public:
  explicit ScopedProgress(Progress* p) { set_progress(p); }
  ~ScopedProgress() { set_progress(nullptr); }
  ScopedProgress(const ScopedProgress&) = delete;
  ScopedProgress& operator=(const ScopedProgress&) = delete;
};

/// Engine-side hooks (no-ops when no gate is installed).
inline void progress_begin_call(std::uint64_t trials) {
  if (Progress* p = progress()) p->begin_call(trials);
}
inline void progress_add_trials(std::uint64_t n) {
  if (Progress* p = progress()) p->add_trials(n);
}

}  // namespace mram::obs

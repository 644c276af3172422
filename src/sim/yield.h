#pragma once

#include "array/intercell.h"
#include "engine/monte_carlo.h"
#include "sim/variation.h"

// Parametric-yield analysis: what fraction of devices, drawn from the
// process-variation distribution, meet the write and retention specs when
// placed at a given array pitch and exposed to worst-case magnetic coupling?
// This turns the paper's device-level conclusions (Figs. 4c/5/6) into the
// array-design question its introduction poses: how dense can the memory be?

namespace mram::sim {

/// Pass/fail criteria applied to each sampled device at its worst-case
/// neighborhood (NP8 = 0 for both the AP->P write and the P retention).
struct YieldSpec {
  double write_voltage = 0.9;     ///< [V]
  double max_switching_time = 12e-9;  ///< write spec: tw(AP->P) limit [s]
  double min_delta = 26.0;        ///< retention spec at `temperature`
  double temperature = 358.15;    ///< [K] (85 degC)

  void validate() const;
};

struct YieldResult {
  std::size_t sampled = 0;
  std::size_t pass_write = 0;
  std::size_t pass_retention = 0;
  std::size_t pass_both = 0;
  double yield = 0.0;  ///< pass_both / sampled
};

/// Monte Carlo yield at one pitch. Each sample re-derives its own intra-cell
/// field and its own inter-cell worst case (fields scale with the sampled
/// Ms*t and size). Samples run on the caller's runner: `rng` seeds the
/// per-sample streams; a pitch sweep passes one runner so it pays thread
/// creation once.
YieldResult estimate_yield(const dev::MtjParams& nominal,
                           const VariationModel& variation, double pitch,
                           const YieldSpec& spec, std::size_t samples,
                           util::Rng& rng, eng::MonteCarloRunner& runner);

}  // namespace mram::sim

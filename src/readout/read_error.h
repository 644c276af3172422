#pragma once

#include <cstddef>
#include <vector>

#include "device/mtj_device.h"
#include "mram/cell_1t1r.h"
#include "readout/bitline.h"
#include "readout/sense_amp.h"
#include "util/rng.h"

// Read-error composition: the full read path of one access.
//
//   column driver --(BitlinePath IR drop + sneak network)--> selected cell
//   (access transistor + MTJ, with per-read TMR variation) --> SenseAmp
//   decision, while the read current exerts spin torque on the free layer
//   (read disturb).
//
// ReadErrorModel owns the electrical composition and exposes three error
// mechanisms per read:
//   * decision errors  -- the sense amp latches the wrong side (offset +
//     reference mismatch + TMR-variation-shrunken margin);
//   * blocked reads    -- the differential lands in the metastable band
//     (transient fault: no valid data, stored bit intact);
//   * read disturb     -- the read current thermally activates an unintended
//     switch of the stored bit during the read pulse (analytic model here;
//     rer.h's measure_read_disturb integrates the same drive on the
//     stochastic-LLG path, scalar and batched).
//
// Determinism contract (read side): sample_read consumes a fixed draw
// sequence from the caller's Rng -- one normal (TMR variation), two normals
// inside SenseAmp::sample, then exactly one uniform for the disturb
// bernoulli when its probability is in (0, 1) -- so scalar and batched
// Monte Carlo paths driven by the same util::Rng::stream agree bit for bit,
// mirroring the write-side contract of measure_wer.

namespace mram::rdo {

struct ReadPathConfig {
  mem::AccessTransistor transistor;  ///< r_read is the in-cell series term
  BitlineParams bitline;
  SenseAmpParams sense;
  double v_read = 0.25;        ///< column driver voltage during a read [V]
  double t_read = 20e-9;       ///< read pulse (strobe) duration [s]
  double tmr_sigma_rel = 0.03; ///< per-read-cell relative TMR0 variation

  void validate() const;
};

/// Outcome of one sampled read access.
struct ReadOutcome {
  int observed = 0;       ///< bit the sense amp reported (valid iff !blocked)
  bool blocked = false;   ///< metastable strobe: no valid decision
  bool decision_error = false;  ///< latched the complement of the stored bit
  bool disturbed = false; ///< the read pulse flipped the stored bit
  double i_cell = 0.0;    ///< this read's (TMR-varied) cell current [A]
  double margin = 0.0;    ///< signed correct-side margin vs the reference [A]
};

class ReadErrorModel {
 public:
  ReadErrorModel(const dev::MtjParams& device, const ReadPathConfig& path);

  const dev::MtjDevice& device() const { return device_; }
  const ReadPathConfig& path() const { return path_; }
  const SenseAmp& sense_amp() const { return sense_; }
  const BitlinePath& bitline() const { return bitline_; }

  /// Nominal electrical operating point of a read of `row` with
  /// `column_data` (bit 1 = AP) on the shared lines. The dense ladder solve
  /// lives here; everything downstream is O(1) per read, so Monte Carlo
  /// loops hoist the operating point per chunk.
  struct OperatingPoint {
    std::size_t row = 0;
    ReadPort port;
    double v_p = 0.0, v_ap = 0.0;  ///< MTJ bias by stored state [V]
    double i_p = 0.0, i_ap = 0.0;  ///< nominal cell current by state [A]
    double i_ref = 0.0;            ///< midpoint reference current [A]
    double margin = 0.0;           ///< nominal sense margin (i_p - i_ap)/2 [A]
  };
  OperatingPoint operating_point(std::size_t row,
                                 const std::vector<int>& column_data) const;

  /// Bias and current of the selected cell closing the port, with the AP
  /// branch's TMR0 scaled by `tmr_mult` (1 = nominal). Solved by fixed-point
  /// iteration on the bias-dependent AP resistance, like Cell1T1R.
  struct CellRead {
    double v_mtj = 0.0;  ///< bias across the MTJ [V]
    double i_cell = 0.0; ///< current through the cell branch [A]
  };
  CellRead cell_read(const ReadPort& port, dev::MtjState state,
                     double tmr_mult = 1.0) const;

  /// Analytic read-disturb probability for `stored` carrying `i_cell` amps
  /// for `duration` seconds: thermally activated reversal with the barrier
  /// scaled by 1 -/+ I/Ic (the read polarity drives AP->P, destabilizing AP
  /// and stabilizing P) -- MtjDevice::read_disturb_probability evaluated at
  /// the *actual* post-IR-drop cell current instead of an ideal bias.
  double disturb_probability(dev::MtjState stored, double i_cell,
                             double duration, double hz_stray,
                             double t = 300.0) const;

  /// Analytic per-read error probabilities at the nominal operating point
  /// (no TMR variation): {decision error, blocked, disturb}.
  struct ErrorBudget {
    double decision = 0.0;
    double blocked = 0.0;
    double disturb = 0.0;
  };
  ErrorBudget error_budget(const OperatingPoint& op, dev::MtjState stored,
                           double hz_stray, double t = 300.0) const;

  /// One full sampled read of a cell storing `stored` at the hoisted
  /// operating point. Fixed draw sequence (see file header).
  ReadOutcome sample_read(const OperatingPoint& op, dev::MtjState stored,
                          double hz_stray, double t, util::Rng& rng) const;

  /// Deterministic mirror of sample_read's sense decision with the three
  /// standard-normal deviates of each read made explicit, for n reads at
  /// once: lane l reads z = zs + 3*l, where z[0] is the TMR variation, z[1]
  /// the comparator offset, z[2] the reference mismatch. Writes to out[l]
  /// the signed correct-side differential the latch sees; the read fails
  /// (wrong decision or metastable strobe) iff that margin is below the
  /// sense amp's metastable band. At z = {0,0,0} this equals op.margin.
  /// The rare-event drivers tilt / split on this function; the AP bias
  /// solve runs lane-parallel, and each lane is bit-identical to a
  /// one-read call.
  void noise_margin(const OperatingPoint& op, dev::MtjState stored,
                    std::size_t n, const double* zs, double* out) const;

 private:
  /// AP-branch bias (v_mtj) and current (i_cell) of the cell closing
  /// `port` for n <= 64 lanes of TMR0 multipliers: the fixed point behind
  /// cell_read and noise_margin, solved for all lanes at once.
  void solve_ap(const ReadPort& port, std::size_t n, const double* tmr_mult,
                double* v_mtj, double* i_cell) const;

  dev::MtjDevice device_;
  ReadPathConfig path_;
  SenseAmp sense_;
  BitlinePath bitline_;
  double rp_ = 0.0;  ///< parallel resistance RA/A [Ohm]
};

}  // namespace mram::rdo

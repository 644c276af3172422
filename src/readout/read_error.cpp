#include "readout/read_error.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/metrics.h"
#include "util/error.h"

#if defined(__GNUC__) || defined(__clang__)
#define MRAM_RESTRICT __restrict__
#define MRAM_NOINLINE __attribute__((noinline))
#else
#define MRAM_RESTRICT
#define MRAM_NOINLINE
#endif

// Runtime-dispatched SIMD width for the lane-parallel AP fixed point (see
// dynamics/llg_batch.cpp for the dispatch rationale). Each iteration is a
// chain of three dependent divisions per lane, so a single lane is
// latency-bound; across 64 independent lanes the divider pipelines fill,
// and the widest clone wins. Bit-identical to one lane at a time: the
// vector divisions are correctly rounded like the scalar ones, and the
// build pins -ffp-contract=off. Unlike llg_batch.cpp this file stays under
// LTO: the kernel is a noinline file-local function, its call sites still
// go through the ifunc resolver in LTO builds (check with objdump for
// calls to `ap_fixed_point` via the PLT), and excluding the file from LTO
// measured ~10% slower on the per-sample read-model set-up of pitch_yield.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define MRAM_SIMD_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define MRAM_SIMD_CLONES
#endif

namespace mram::rdo {

using dev::MtjState;

namespace {

/// Lanes per call of the fixed-point kernel (its stack workspace).
constexpr std::size_t kApLanes = 64;

/// Constants of the AP bias divider v_th * R(v) / (R(v) + r_series).
struct ApDivider {
  double v_th = 0.0;
  double r_series = 0.0;
  double rp = 0.0;
  double tmr0 = 0.0;
  double vh = 0.0;
};

/// Bias-dependent AP resistance with the TMR roll-off, TMR0 scaled by
/// `tmr_mult`.
inline double ap_resistance(const ApDivider& d, double v, double tmr_mult) {
  const double x = v / d.vh;
  return d.rp * (1.0 + tmr_mult * d.tmr0 / (1.0 + x * x));
}

// The AP fixed point for n <= kApLanes independent lanes at once. The map
// v <- v_th * R(v) / (R(v) + r_series) is a contraction (R bounded,
// r_series > 0), so a handful of iterations reaches double precision. Every
// lane keeps the one-lane iteration exactly: it starts from the R(0)
// divider, takes the iterate of each step, and stops at the first step
// whose update is below 1e-15 * v_th (at most 100). The integer active mask
// freezes a converged lane while the others go on; the loop body is
// branch-free (integer mask and OR reduction) so it vectorizes.
MRAM_NOINLINE MRAM_SIMD_CLONES void ap_fixed_point(
    std::size_t n, const ApDivider& divider,
    const double* MRAM_RESTRICT tmr_mult, double* MRAM_RESTRICT v,
    double* MRAM_RESTRICT i_cell) {
  const ApDivider d = divider;  // loop-invariant locals
  const double tol = 1e-15 * d.v_th;
  std::int64_t active[kApLanes];
  for (std::size_t l = 0; l < n; ++l) {
    const double r0 = ap_resistance(d, 0.0, tmr_mult[l]);
    v[l] = d.v_th * r0 / (r0 + d.r_series);
    active[l] = 1;
  }
  for (int iter = 0; iter < 100; ++iter) {
    std::int64_t any = 0;
    for (std::size_t l = 0; l < n; ++l) {
      const double r = ap_resistance(d, v[l], tmr_mult[l]);
      const double v_next = d.v_th * r / (r + d.r_series);
      const std::int64_t converged = std::abs(v_next - v[l]) < tol;
      v[l] = active[l] ? v_next : v[l];
      active[l] &= converged ^ 1;
      any |= active[l];
    }
    if (any == 0) break;
  }
  for (std::size_t l = 0; l < n; ++l) {
    i_cell[l] = v[l] / ap_resistance(d, v[l], tmr_mult[l]);
  }
}

}  // namespace

void ReadPathConfig::validate() const {
  transistor.validate();
  bitline.validate();
  sense.validate();
  if (v_read <= 0.0) throw util::ConfigError("read voltage must be positive");
  if (t_read <= 0.0) throw util::ConfigError("read pulse must be positive");
  if (tmr_sigma_rel < 0.0) {
    throw util::ConfigError("TMR sigma must be non-negative");
  }
}

ReadErrorModel::ReadErrorModel(const dev::MtjParams& device,
                               const ReadPathConfig& path)
    : device_(device),
      path_((path.validate(), path)),
      sense_(path.sense),
      bitline_(path.bitline, device_.electrical()) {
  rp_ = device_.electrical().rp();
}

ReadErrorModel::CellRead ReadErrorModel::cell_read(const ReadPort& port,
                                                   MtjState state,
                                                   double tmr_mult) const {
  CellRead read;
  if (state == MtjState::kParallel) {
    // Bias-independent resistance: closed form.
    const double r_series = port.r_thevenin + path_.transistor.r_read;
    read.i_cell = port.v_thevenin / (r_series + rp_);
    read.v_mtj = read.i_cell * rp_;
    return read;
  }
  // AP resistance depends on its own bias through the TMR roll-off: the
  // one-lane case of the lane-parallel fixed point.
  solve_ap(port, 1, &tmr_mult, &read.v_mtj, &read.i_cell);
  return read;
}

void ReadErrorModel::solve_ap(const ReadPort& port, std::size_t n,
                              const double* tmr_mult, double* v_mtj,
                              double* i_cell) const {
  const auto& ep = device_.params().electrical;
  ApDivider d;
  d.v_th = port.v_thevenin;
  d.r_series = port.r_thevenin + path_.transistor.r_read;
  d.rp = rp_;
  d.tmr0 = ep.tmr0;
  d.vh = ep.vh;
  ap_fixed_point(n, d, tmr_mult, v_mtj, i_cell);
}

ReadErrorModel::OperatingPoint ReadErrorModel::operating_point(
    std::size_t row, const std::vector<int>& column_data) const {
  OperatingPoint op;
  op.row = row;
  op.port = bitline_.port(row, path_.v_read, column_data);
  const CellRead p = cell_read(op.port, MtjState::kParallel);
  const CellRead ap = cell_read(op.port, MtjState::kAntiParallel);
  op.v_p = p.v_mtj;
  op.v_ap = ap.v_mtj;
  op.i_p = p.i_cell;
  op.i_ap = ap.i_cell;
  op.i_ref = 0.5 * (op.i_p + op.i_ap);
  op.margin = 0.5 * (op.i_p - op.i_ap);
  MRAM_ENSURES(op.margin > 0.0, "P must carry more read current than AP");
  return op;
}

double ReadErrorModel::disturb_probability(MtjState stored, double i_cell,
                                           double duration, double hz_stray,
                                           double t) const {
  // One home for the physics: the device's quadratic STT-activation model,
  // evaluated at the actual (IR-dropped, TMR-varied) cell current.
  return device_.read_disturb_probability_at_current(stored, i_cell, duration,
                                                     hz_stray, t);
}

ReadErrorModel::ErrorBudget ReadErrorModel::error_budget(
    const OperatingPoint& op, MtjState stored, double hz_stray,
    double t) const {
  ErrorBudget budget;
  budget.decision = sense_.decision_error_probability(op.margin);
  budget.blocked = sense_.blocked_probability(op.margin);
  const double i_cell = stored == MtjState::kParallel ? op.i_p : op.i_ap;
  budget.disturb =
      disturb_probability(stored, i_cell, path_.t_read, hz_stray, t);
  return budget;
}

ReadOutcome ReadErrorModel::sample_read(const OperatingPoint& op,
                                        MtjState stored, double hz_stray,
                                        double t, util::Rng& rng) const {
  // Every sampling read-path trial body funnels through here, so this one
  // tag attributes the RER / stage / disturb / yield drivers' chunks.
  // noise_margin stays untagged on purpose: it is the score function of the
  // rare-event drivers, whose chunks tag kRare.
  obs::tag_kernel(obs::KernelTag::kReadout);
  // Draw 1: this read's cell TMR deviation. Drawn for both states so the
  // stream consumption never depends on the stored data; it only perturbs
  // the AP branch (R_P carries no TMR term).
  const double tmr_mult =
      std::max(1.0 + path_.tmr_sigma_rel * rng.normal(), 0.05);
  const CellRead read = cell_read(op.port, stored, tmr_mult);

  // Draws 2-3: the sense comparison against the nominal reference.
  const SenseOutcome sensed = sense_.sample(read.i_cell, op.i_ref, rng);

  ReadOutcome out;
  out.i_cell = read.i_cell;
  out.margin = stored == MtjState::kParallel ? read.i_cell - op.i_ref
                                             : op.i_ref - read.i_cell;
  out.blocked = sensed == SenseOutcome::kBlocked;
  if (!out.blocked) {
    out.observed =
        sensed == SenseOutcome::kReadAp ? 1 : 0;
    out.decision_error = out.observed != dev::state_to_bit(stored);
  }

  // Draw 4: read disturb at the actual (TMR-varied, IR-dropped) current.
  const double p_disturb =
      disturb_probability(stored, read.i_cell, path_.t_read, hz_stray, t);
  out.disturbed = rng.bernoulli(p_disturb);
  return out;
}

void ReadErrorModel::noise_margin(const OperatingPoint& op, MtjState stored,
                                  std::size_t n, const double* zs,
                                  double* out) const {
  // Same arithmetic as sample_read + SenseAmp::sample, with the deviates
  // injected instead of drawn: tmr_mult from z[0] (clamped like the sampled
  // path), offset from z[1], reference mismatch from z[2].
  const auto margin = [&](double i_cell, const double* z) {
    const double offset = path_.sense.offset_sigma * z[1];
    const double ref_error = path_.sense.reference_sigma * z[2];
    const double differential = (i_cell + offset) - (op.i_ref + ref_error);
    return stored == MtjState::kParallel ? differential : -differential;
  };
  if (stored == MtjState::kParallel) {
    // R_P carries no TMR term: one closed-form current for every lane.
    const double i_cell = cell_read(op.port, stored).i_cell;
    for (std::size_t l = 0; l < n; ++l) out[l] = margin(i_cell, zs + 3 * l);
    return;
  }
  double tmr_mult[kApLanes], v_mtj[kApLanes], i_cell[kApLanes];
  for (std::size_t base = 0; base < n; base += kApLanes) {
    const std::size_t lanes = std::min(kApLanes, n - base);
    const double* z = zs + 3 * base;
    for (std::size_t l = 0; l < lanes; ++l) {
      tmr_mult[l] = std::max(1.0 + path_.tmr_sigma_rel * z[3 * l], 0.05);
    }
    solve_ap(op.port, lanes, tmr_mult, v_mtj, i_cell);
    for (std::size_t l = 0; l < lanes; ++l) {
      out[base + l] = margin(i_cell[l], z + 3 * l);
    }
  }
}

}  // namespace mram::rdo

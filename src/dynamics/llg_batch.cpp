#include "dynamics/llg_batch.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "dynamics/llg_heun_step.h"
#include "obs/metrics.h"
#include "util/constants.h"
#include "util/error.h"

#if defined(__GNUC__) || defined(__clang__)
#define MRAM_RESTRICT __restrict__
// Keep the lane kernel an out-of-line function even under LTO: restrict is
// only honored on function *parameters*, so inlining it into the caller
// would degrade the pointers to locals and silently kill vectorization.
#define MRAM_NOINLINE __attribute__((noinline))
#define MRAM_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define MRAM_RESTRICT
#define MRAM_NOINLINE
#define MRAM_ALWAYS_INLINE inline
#endif

// Runtime-dispatched SIMD width for the lane loop on x86-64: the portable
// baseline only guarantees SSE2 (2 doubles/op), so the default build would
// leave a lot on the table on AVX machines. target_clones emits one clone
// per ISA plus an ifunc resolver picked at load time. The clone list is
// width-dependent: one Heun step is a serial dependency chain, so at the
// default 8-lane width an AVX-512 clone packs the whole block into a single
// latency-bound zmm chain, and measured slower than two interleaved ymm
// chains (plus heavy zmm sqrt/div and license downclocking) -- the generic
// and 8-lane kernels therefore stop at AVX2. At 16 lanes the block fills
// two independent zmm chains and AVX-512 pays off, so the dedicated w16
// kernel adds an avx512f clone and preferred_lanes() gives run_until_switch
// 16 slots on CPUs that have it. Safe for the bit-identity contract
// because vectorization only reorders *independent lanes*, never the
// within-lane operation sequence, and the build pins -ffp-contract=off so
// no clone can fuse multiply-adds.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define MRAM_SIMD_CLONES __attribute__((target_clones("avx2", "default")))
#define MRAM_SIMD_CLONES_W16 \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#define MRAM_HAS_AVX512_DISPATCH 1
#else
#define MRAM_SIMD_CLONES
#define MRAM_SIMD_CLONES_W16
#define MRAM_HAS_AVX512_DISPATCH 0
#endif

namespace mram::dyn {

using num::Vec3;

BatchMacrospinSim::BatchMacrospinSim(const LlgParams& params)
    : params_(params) {
  params_.validate();
  rhs_.gamma_prime = util::kGyromagneticRatio * util::kMu0 /
                     (1.0 + params_.alpha * params_.alpha);
  rhs_.alpha = params_.alpha;
  rhs_.hk = params_.hk;
  rhs_.aj = params_.spin_torque_field();
  rhs_.h = params_.h_applied;
  rhs_.p = params_.spin_polarization;
}

namespace {

/// Steps per thermal-noise prefetch block: one lane fill (and one kernel
/// call, absent switching) covers this many steps per lane.
constexpr std::size_t kNoiseBlockSteps = 64;

// Turns the raw deviates z in the first n slots of the field block's
// 3 * steps rows into thermal fields, in place: h = h_applied + sigma * z,
// the scalar loop's field transform.
MRAM_NOINLINE MRAM_SIMD_CLONES void thermal_field_rows(
    std::size_t steps, std::size_t n, std::size_t cap, const double* ha,
    double sigma, double* MRAM_RESTRICT field) {
  for (std::size_t r = 0; r < 3 * steps; ++r) {
    double* MRAM_RESTRICT row = field + r * cap;
    const double hac = ha[r % 3];
    for (std::size_t a = 0; a < n; ++a) row[a] = hac + sigma * row[a];
  }
}

// Lockstep Heun steps for the first n active slots, up to `steps` of them:
// the canonical stochastic_heun_step (shared with the scalar reference
// path, so each lane is bit-identical to it by construction) inlined into a
// per-lane loop over the SoA arrays, where the independent lanes fill the
// FP pipelines and auto-vectorize. The field is one [step][xyz][slot]
// block: hxm, hym and hzm point at its rows 0, 1 and 2, and step s reads
// rows 3s, 3s+1 and 3s+2 (h_stride = 3*cap). In the constant-field
// sigma == 0 case the block holds a single xyz row and h_stride = 0 reuses
// it at every step. Returns after the first step at which
// any lane crossed -- crossed[] then identifies the finished lanes -- or
// after `steps` steps, whichever is first; the return value is the number
// of steps executed. A free function with restrict-qualified *parameters*:
// GCC only honors restrict on parameters, and without it the possible
// aliasing between the arrays blocks vectorization. The three field
// pointers may address rows of one block: restrict only forbids overlap
// with memory that is written, and the kernel never writes a field.
template <bool kHasTorque>
MRAM_ALWAYS_INLINE std::size_t step_lanes_body(
    std::size_t n, std::size_t steps, std::size_t h_stride,
    double* MRAM_RESTRICT mx, double* MRAM_RESTRICT my,
    double* MRAM_RESTRICT mz, const double* MRAM_RESTRICT hxm,
    const double* MRAM_RESTRICT hym, const double* MRAM_RESTRICT hzm,
    const double* MRAM_RESTRICT sign, double* MRAM_RESTRICT crossed,
    const detail::HeunStepCoeffs& coeffs, double mz_stop) {
  const detail::HeunStepCoeffs c = coeffs;  // loop-invariant locals
  for (std::size_t s = 0; s < steps; ++s) {
    const double* MRAM_RESTRICT hx = hxm + s * h_stride;
    const double* MRAM_RESTRICT hy = hym + s * h_stride;
    const double* MRAM_RESTRICT hz = hzm + s * h_stride;
    double any = 0.0;
    for (std::size_t a = 0; a < n; ++a) {
      detail::stochastic_heun_step<kHasTorque>(c, hx[a], hy[a], hz[a], mx[a],
                                               my[a], mz[a]);
      const double flag = (sign[a] * (mz[a] - mz_stop) < 0.0) ? 1.0 : 0.0;
      crossed[a] = flag;
      any += flag;
    }
    if (any != 0.0) return s + 1;
  }
  return steps;
}

template <bool kHasTorque>
MRAM_NOINLINE MRAM_SIMD_CLONES std::size_t step_lanes_block(
    std::size_t n, std::size_t steps, std::size_t h_stride,
    double* MRAM_RESTRICT mx, double* MRAM_RESTRICT my,
    double* MRAM_RESTRICT mz, const double* MRAM_RESTRICT hxm,
    const double* MRAM_RESTRICT hym, const double* MRAM_RESTRICT hzm,
    const double* MRAM_RESTRICT sign, double* MRAM_RESTRICT crossed,
    const detail::HeunStepCoeffs& coeffs, double mz_stop) {
  return step_lanes_body<kHasTorque>(n, steps, h_stride, mx, my, mz, hxm,
                                     hym, hzm, sign, crossed, coeffs,
                                     mz_stop);
}

// Fixed-width specialization for full kDefaultLanes blocks -- the common
// case by far. The compile-time lane count removes the vector epilogue and
// all dynamic-bound loop overhead from the hot step loop.
template <bool kHasTorque>
MRAM_NOINLINE MRAM_SIMD_CLONES std::size_t step_lanes_block_w8(
    std::size_t steps, std::size_t h_stride, double* MRAM_RESTRICT mx,
    double* MRAM_RESTRICT my, double* MRAM_RESTRICT mz,
    const double* MRAM_RESTRICT hxm, const double* MRAM_RESTRICT hym,
    const double* MRAM_RESTRICT hzm, const double* MRAM_RESTRICT sign,
    double* MRAM_RESTRICT crossed, const detail::HeunStepCoeffs& coeffs,
    double mz_stop) {
  static_assert(BatchMacrospinSim::kDefaultLanes == 8);
  return step_lanes_body<kHasTorque>(8, steps, h_stride, mx, my, mz, hxm,
                                     hym, hzm, sign, crossed, coeffs,
                                     mz_stop);
}

// Fixed 16-lane specialization, the only kernel with an avx512f clone: two
// independent zmm dependency chains keep the wide units busy where a single
// 8-lane chain cannot (see the clone-list comment above).
template <bool kHasTorque>
MRAM_NOINLINE MRAM_SIMD_CLONES_W16 std::size_t step_lanes_block_w16(
    std::size_t steps, std::size_t h_stride, double* MRAM_RESTRICT mx,
    double* MRAM_RESTRICT my, double* MRAM_RESTRICT mz,
    const double* MRAM_RESTRICT hxm, const double* MRAM_RESTRICT hym,
    const double* MRAM_RESTRICT hzm, const double* MRAM_RESTRICT sign,
    double* MRAM_RESTRICT crossed, const detail::HeunStepCoeffs& coeffs,
    double mz_stop) {
  static_assert(BatchMacrospinSim::kAvx512Lanes == 16);
  return step_lanes_body<kHasTorque>(16, steps, h_stride, mx, my, mz, hxm,
                                     hym, hzm, sign, crossed, coeffs,
                                     mz_stop);
}

}  // namespace

std::size_t BatchMacrospinSim::preferred_lanes() {
  std::size_t lanes = kDefaultLanes;
#if MRAM_HAS_AVX512_DISPATCH
  if (__builtin_cpu_supports("avx512f")) lanes = kAvx512Lanes;
#endif
  obs::gauge_set(obs::Gauge::kLlgPreferredLanes,
                 static_cast<double>(lanes));
  return lanes;
}

std::size_t BatchMacrospinSim::step_budget(double duration, double dt) {
  if (duration != budget_duration_ || dt != budget_dt_) {
    // The number of iterations the scalar while-loop executes for this
    // window, replayed with the scalar path's exact floating-point time
    // accumulation so both paths agree on every window.
    std::size_t n = 0;
    for (double tt = 0.0; tt < duration; ++n) tt += dt;
    budget_duration_ = duration;
    budget_dt_ = dt;
    budget_steps_ = n;
  }
  return budget_steps_;
}

void BatchMacrospinSim::run_until_switch(std::size_t n, const Vec3* m0,
                                         util::Rng* rngs, double duration,
                                         double dt, SwitchResult* out,
                                         double mz_stop) {
  MRAM_EXPECTS(dt > 0.0 && duration > 0.0, "invalid integration window");
  MRAM_EXPECTS(n > 0, "need at least one trial");
  for (std::size_t l = 0; l < n; ++l) {
    MRAM_EXPECTS(std::abs(num::norm(m0[l]) - 1.0) < 1e-6,
                 "m0 must be a unit vector");
  }
  obs::counter_add(obs::Counter::kLlgLanesEntered, n);
  obs::tag_kernel(obs::KernelTag::kLlg);

  const std::size_t cap = std::min(n, preferred_lanes());  // slot count
  mx_.resize(cap);
  my_.resize(cap);
  mz_.resize(cap);
  sign_.resize(cap);
  crossed_.resize(cap);
  left_.resize(cap);
  t_.resize(cap);
  lane_of_.resize(cap);
  fresh_.resize(cap);
  fresh_lane_.resize(cap);

  // Starts the next queued trial in slot a, with its whole step budget
  // left and its own clock at zero.
  const std::size_t budget = step_budget(duration, dt);
  std::size_t next = 0;
  const auto load = [&](std::size_t a) {
    const std::size_t l = next++;
    mx_[a] = m0[l].x;
    my_[a] = m0[l].y;
    mz_[a] = m0[l].z;
    sign_[a] = (m0[l].z >= mz_stop) ? 1.0 : -1.0;
    crossed_[a] = 0.0;
    left_[a] = budget;
    t_[a] = 0.0;
    lane_of_[a] = l;
  };
  for (std::size_t a = 0; a < cap; ++a) load(a);

  const double sigma = thermal_field_sigma(params_, dt);
  const bool has_torque = (rhs_.aj != 0.0);
  const Vec3 ha = params_.h_applied;
  const auto coeffs = detail::HeunStepCoeffs::from(rhs_, dt);
  const double ha_arr[3] = {ha.x, ha.y, ha.z};

  // The field block holds the per-slot fields of kNoiseBlockSteps steps as
  // rows [step][xyz][slot]: row 3 * s + c is component c of step s. At each
  // block boundary one lane-parallel fill writes every active slot's next
  // 3 * 64 deviates straight into it (value k of a trial's stream is
  // component k % 3 of step k / 3, exactly the order the scalar path draws
  // three per step), and thermal_field_rows applies the scalar path's field
  // transform in place. The kernel then reads whole rows with contiguous
  // vector loads. A trial that enters a slot mid-block has the block's
  // remaining rows filled from its own stream, so every stream is consumed
  // in solo order. normal_fill's stream consistency (one big fill == many
  // 3-value fills) keeps the values identical to the scalar path's per-step
  // draws. Without a thermal field the block is one constant row of
  // h_applied that every step reuses (h_stride 0).
  if (sigma > 0.0) {
    field_.resize(kNoiseBlockSteps * 3 * cap);
  } else {
    field_.resize(3 * cap);
    for (std::size_t c = 0; c < 3; ++c) {
      std::fill_n(field_.begin() + c * cap, cap, ha_arr[c]);
    }
  }

  std::size_t n_active = cap;
  std::size_t phase = 0;  // step index within the current noise block
  while (n_active > 0) {
    std::size_t steps_avail = kNoiseBlockSteps;
    const double* h = field_.data();
    std::size_t h_stride = 0;
    if (sigma > 0.0) {
      if (phase == 0) {
        util::Rng::normal_fill_lanes(rngs, lane_of_.data(), n_active,
                                     3 * kNoiseBlockSteps, field_.data(),
                                     cap);
        thermal_field_rows(kNoiseBlockSteps, n_active, cap, ha_arr, sigma,
                           field_.data());
      }
      steps_avail = kNoiseBlockSteps - phase;
      h = field_.data() + phase * 3 * cap;
      h_stride = 3 * cap;
    }
    const double* hxm = h;
    const double* hym = h + cap;
    const double* hzm = h + 2 * cap;

    // Steps this kernel call may run: capped by the noise block and by the
    // smallest remaining per-slot budget, so no trial ever oversteps its
    // own window. Active slots always have budget left (exhausted trials
    // retire below), so min_left >= 1.
    std::size_t min_left = left_[0];
    for (std::size_t a = 1; a < n_active; ++a) {
      min_left = std::min(min_left, left_[a]);
    }
    const std::size_t remaining = std::min(steps_avail, min_left);

    const auto kernel = [&](auto torque) -> std::size_t {
      constexpr bool kT = decltype(torque)::value;
      if (n_active == kDefaultLanes) {
        obs::counter_add(obs::Counter::kLlgBlocksW8);
        return step_lanes_block_w8<kT>(remaining, h_stride, mx_.data(),
                                       my_.data(), mz_.data(), hxm, hym, hzm,
                                       sign_.data(), crossed_.data(), coeffs,
                                       mz_stop);
      }
      if (n_active == kAvx512Lanes) {
        obs::counter_add(obs::Counter::kLlgBlocksW16);
        return step_lanes_block_w16<kT>(remaining, h_stride, mx_.data(),
                                        my_.data(), mz_.data(), hxm, hym, hzm,
                                        sign_.data(), crossed_.data(), coeffs,
                                        mz_stop);
      }
      obs::counter_add(obs::Counter::kLlgBlocksGeneric);
      return step_lanes_block<kT>(n_active, remaining, h_stride, mx_.data(),
                                  my_.data(), mz_.data(), hxm, hym, hzm,
                                  sign_.data(), crossed_.data(), coeffs,
                                  mz_stop);
    };
    const std::size_t done = has_torque ? kernel(std::true_type{})
                                        : kernel(std::false_type{});
    // Occupancy bookkeeping: lane-steps actually executed vs the capacity
    // of every slot stepping (the refill-and-compaction efficiency ratio).
    obs::counter_add(obs::Counter::kLlgNoiseBlocks);
    obs::counter_add(obs::Counter::kLlgLaneSteps,
                     static_cast<std::uint64_t>(done) * n_active);
    obs::counter_add(obs::Counter::kLlgLaneStepCapacity,
                     static_cast<std::uint64_t>(done) * cap);
    obs::counter_add(obs::Counter::kLlgFlops,
                     static_cast<std::uint64_t>(done) * n_active *
                         (has_torque ? detail::kHeunStepFlopsTorque
                                     : detail::kHeunStepFlops));
    // Each slot's clock takes the scalar loop's t += dt once per step.
    for (std::size_t s = 0; s < done; ++s) {
      for (std::size_t a = 0; a < n_active; ++a) t_[a] += dt;
    }
    bool any_finished = false;
    for (std::size_t a = 0; a < n_active; ++a) {
      left_[a] -= done;
      any_finished |= (crossed_[a] != 0.0) || (left_[a] == 0);
    }
    if (sigma > 0.0) phase = (phase + done) % kNoiseBlockSteps;
    if (!any_finished) continue;

    // Retire finished trials. A crossing takes precedence over budget
    // exhaustion, exactly like the scalar loop's final-step check. While
    // trials are queued a retired slot is refilled in place with the next
    // one; once the queue is empty, retired slots are compacted out
    // (order-preserving), dragging the remaining rows of the field block
    // along. Vacancies only open once the queue is empty, so a refill
    // always lands in its own slot.
    std::size_t n_fresh = 0;
    std::size_t w = 0;
    for (std::size_t a = 0; a < n_active; ++a) {
      const bool crossed = crossed_[a] != 0.0;
      if (crossed || left_[a] == 0) {
        const std::size_t l = lane_of_[a];
        if (crossed) {
          obs::counter_add(obs::Counter::kLlgLanesEarlyExit);
          out[l] = {true, t_[a], {mx_[a], my_[a], mz_[a]}};
        } else {
          out[l] = {false, duration, {mx_[a], my_[a], mz_[a]}};
        }
        if (next == n) continue;
        load(a);
        fresh_[n_fresh] = a;
        fresh_lane_[n_fresh] = lane_of_[a];
        ++n_fresh;
        ++w;
        continue;
      }
      if (w != a) {
        mx_[w] = mx_[a];
        my_[w] = my_[a];
        mz_[w] = mz_[a];
        sign_[w] = sign_[a];
        left_[w] = left_[a];
        t_[w] = t_[a];
        lane_of_[w] = lane_of_[a];
        if (sigma > 0.0 && phase != 0) {
          for (std::size_t r = 3 * phase; r < 3 * kNoiseBlockSteps; ++r) {
            field_[r * cap + w] = field_[r * cap + a];
          }
        }
      }
      ++w;
    }
    n_active = w;

    // Newcomers mid-block: draw the block's remaining rows from their own
    // streams, then scatter them to their slots. A lone newcomer (the
    // common case when trials retire at their own crossing times) takes
    // its solo fill, which writes the same values at about half the cost
    // of a one-lane SIMD fill; several take one lane-parallel fill. At a
    // block boundary the next block's fill covers them.
    if (n_fresh > 0 && sigma > 0.0 && phase != 0) {
      const std::size_t rows = 3 * (kNoiseBlockSteps - phase);
      fresh_field_.resize(rows * n_fresh);
      if (n_fresh == 1) {
        rngs[fresh_lane_[0]].normal_fill(fresh_field_.data(), rows);
      } else {
        util::Rng::normal_fill_lanes(rngs, fresh_lane_.data(), n_fresh,
                                     rows, fresh_field_.data(), n_fresh);
      }
      thermal_field_rows(kNoiseBlockSteps - phase, n_fresh, n_fresh, ha_arr,
                         sigma, fresh_field_.data());
      for (std::size_t r = 0; r < rows; ++r) {
        const double* src = fresh_field_.data() + r * n_fresh;
        double* dst = field_.data() + (3 * phase + r) * cap;
        for (std::size_t j = 0; j < n_fresh; ++j) dst[fresh_[j]] = src[j];
      }
    }
  }
}

}  // namespace mram::dyn

#pragma once

#include <cstddef>
#include <vector>

#include "dynamics/llg.h"
#include "numerics/vec3.h"
#include "util/rng.h"

// Batched structure-of-arrays stochastic-LLG kernel.
//
// A scalar integrator runs one trial at a time: every Heun stage is a
// serial dependency chain of ~100 flops, so a superscalar core spends most
// of each step waiting on latencies. BatchMacrospinSim advances
// W *independent* trials in lockstep over SoA double arrays, one per slot.
// The per-lane step is the canonical stochastic_heun_step shared with the
// scalar path (llg_heun_step.h), inlined into a lane loop that the compiler
// auto-vectorizes -- with AVX2 and (for 16 slots) AVX-512 clones dispatched
// at load time on x86-64 (see llg_batch.cpp for why the width matters) --
// and driven for up to a whole thermal-noise block (64 steps) per kernel
// call, with an early return as soon as any slot's mz crosses the stop
// plane.
//
// Contract: a call runs n trials over W = min(n, preferred_lanes()) slots.
// A slot whose trial retires (crossing or window exhausted) is refilled in
// place with the next queued trial, which keeps its own step count and
// clock, so the slots stay full -- and the widest kernel body busy -- until
// the queue is empty; only then are retired slots compacted out. Trial l
// draws its thermal field from its own util::Rng -- one
// Rng::normal_fill_lanes call per noise block fills every active slot at
// once, and a trial entering mid-block draws the block's remaining rows
// from its own stream, so each stream is consumed in the order of a solo
// Rng::normal_fill, the sampler and order the scalar path uses -- and the
// per-lane arithmetic is the same inline code, so every trial's
// SwitchResult is bit-identical to the scalar reference
// MacrospinSim::run_until_switch (tests/support/macrospin_sim.h) on the
// same stream, at any n and any slot count -- tests/test_dynamics asserts
// this, refills, remainders and n = 1 included.

namespace mram::dyn {

class BatchMacrospinSim {
 public:
  /// Slot count without AVX-512. Wide enough to keep 8 independent Heun
  /// chains in flight (two interleaved 4-wide AVX2 vectors on x86-64).
  static constexpr std::size_t kDefaultLanes = 8;

  /// Slot count of the AVX-512 fast path: 16 lanes fill two
  /// independent 8-wide zmm dependency chains, which is what makes an
  /// AVX-512 clone profitable where it is not at 8 lanes (one chain,
  /// latency-bound). Used when preferred_lanes() selects it.
  static constexpr std::size_t kAvx512Lanes = 16;

  /// Slot count run_until_switch keeps on this machine (at most):
  /// kAvx512Lanes when the load-time dispatch has an AVX-512 clone to back
  /// it (x86-64 GCC build on an avx512f CPU), else kDefaultLanes. Any width
  /// produces bit-identical results (slots only regroup independent
  /// trials); this only picks the fastest one.
  static std::size_t preferred_lanes();

  explicit BatchMacrospinSim(const LlgParams& params);

  const LlgParams& params() const { return params_; }

  /// Runs `n` independent stochastic trials (n >= 1) over
  /// min(n, preferred_lanes()) refilled slots. Trial l starts at m0[l] (a
  /// unit vector), draws its thermal field from rngs[l], and writes its
  /// result to out[l]. Results per trial are exactly
  /// MacrospinSim::run_until_switch(m0[l], duration, dt, rngs[l], mz_stop)
  /// -- switched flag, crossing time and m_end included. Each trial runs
  /// for the step budget the scalar while-loop would execute for
  /// `duration` (see step_budget) on its own slot clock, and a trial whose
  /// budget is exhausted retires with {switched=false, time=duration}; one
  /// that crosses on its final budgeted step reports switched, exactly like
  /// the scalar loop.
  /// The thermal history is prefetched from each trial's rng in blocks, so
  /// the kernel may consume *more* values from rngs[l] than the scalar path
  /// would (the values actually used are the same ones, in the same order);
  /// callers must not draw further randomness from a trial's rng after the
  /// call and expect scalar-path agreement.
  void run_until_switch(std::size_t n, const num::Vec3* m0, util::Rng* rngs,
                        double duration, double dt, SwitchResult* out,
                        double mz_stop = 0.0);

 private:
  /// Step budget of a `duration` window at step `dt`: the number of
  /// iterations the scalar while-loop executes, replayed with its exact
  /// floating-point time accumulation. The replay costs one dependent add
  /// per step (30,000 for a 60 ns window at 2 ps), so the result is
  /// memoised per (duration, dt) and recomputed only when either changes:
  /// a sim reused across spans replays each window once, not once per
  /// span. A closed form is not a
  /// substitute, because accumulated rounding moves the count both ways:
  /// 1e-9 / 1e-12 replays to 1000 steps where ceil(duration / dt) gives
  /// 1001, and 8e-9 / 2e-13 replays to 40001 where both ceil and round give
  /// 40000.
  std::size_t step_budget(double duration, double dt);

  LlgParams params_;
  LlgRhs rhs_;  ///< precomputed gamma', a_j (shared across lanes)

  // SoA workspace, indexed by slot (refilled as trials retire, compacted
  // once the queue is empty). Kept as members so one BatchMacrospinSim per
  // runner context amortizes the allocations over every call it makes.
  std::vector<double> mx_, my_, mz_;   ///< magnetization per slot
  std::vector<double> sign_;           ///< per-slot start_sign
  std::vector<double> crossed_;        ///< per-slot crossing flag (0/1)
  std::vector<std::size_t> left_;      ///< per-slot steps left in budget
  std::vector<double> t_;              ///< per-slot clock (t += dt per step)
  std::vector<std::size_t> lane_of_;   ///< slot -> caller trial
  /// Field block [step][xyz][slot] of the current noise block: 64 steps of
  /// thermal fields, filled in place by one Rng::normal_fill_lanes call
  /// per block, or a single constant h_applied row when sigma == 0.
  std::vector<double> field_;
  /// Slots refilled mid-block, their trials, and the [row][newcomer]
  /// staging rows of their first partial noise block.
  std::vector<std::size_t> fresh_, fresh_lane_;
  std::vector<double> fresh_field_;

  // One-slot memo of step_budget, keyed on (duration, dt). dt > 0 on every
  // call, so the initial key never matches.
  double budget_duration_ = 0.0;
  double budget_dt_ = 0.0;
  std::size_t budget_steps_ = 0;
};

}  // namespace mram::dyn

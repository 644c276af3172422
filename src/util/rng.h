#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

// Deterministic random number generation for simulations.
//
// We implement xoshiro256++ (public domain, Blackman & Vigna) instead of using
// std::mt19937 because (a) results must be bit-reproducible across standard
// library implementations -- experiment tables in EXPERIMENTS.md are generated
// from seeded runs -- and (b) it is significantly faster in the Monte Carlo
// loops of the write-error-rate scenarios.

namespace mram::util {

/// xoshiro256++ engine. Satisfies std::uniform_random_bit_generator, so it can
/// be used with <random> distributions, though the member helpers below are
/// preferred for reproducibility.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from a single seed via splitmix64,
  /// as recommended by the xoshiro authors.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal deviate -- the *legacy* sampler (Marsaglia polar
  /// method, cached spare), kept bit-for-bit stable: the committed golden
  /// CSVs and every seeded variation/characterization ensemble depend on
  /// its exact draw sequence. Prefer normal_fill for new bulk consumers.
  double normal();

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double sigma);

  /// Fills out[0..n) with standard normal deviates from the 128-strip
  /// ziggurat (tables committed as exact hex literals) -- ~2.5x cheaper per
  /// value than normal() and the sampler behind the stochastic-LLG thermal
  /// fields, scalar and batched alike. Deterministic for a given engine
  /// state and self-consistent: one fill of n equals any split into smaller
  /// fills, with no hidden state between calls. NOT the same value stream
  /// as the legacy normal() (see there for why that one cannot change).
  void normal_fill(double* out, std::size_t n);

  /// Instruction-set level of normal_fill_lanes. Every level produces the
  /// same values; only the speed differs.
  enum class LaneFill { kPortable, kAvx2, kAvx512 };

  /// The level normal_fill_lanes runs at: the widest one this build and CPU
  /// support (AVX-512F, then AVX2, then the portable loop), picked once at
  /// load time.
  static LaneFill lane_fill_level();

  /// Whether this build and CPU can run `level` (kPortable always can).
  static bool lane_fill_supported(LaneFill level);

  /// Lane-parallel normal_fill over many engines: out[k * stride + a] gets
  /// exactly the k-th value rngs[lane_of[a]].normal_fill(., n) would
  /// produce, for a < lanes and k < n, and every engine ends in exactly its
  /// solo-fill state. Nothing else in out is written. A single engine's
  /// fill rate is bounded by its serial xoshiro state chain; the AVX2 and
  /// AVX-512F levels step up to 16 engines at once, one per SIMD element,
  /// and run the ziggurat's strip test across them (the portable level
  /// interleaves the engines' solo draws). A lane whose draw fails the
  /// strip test (~2.5% of draws) finishes it on its own engine through the
  /// scalar wedge/tail code, in lane order, before the next draw index --
  /// so each engine consumes its raw stream in solo order by construction.
  /// The batched LLG kernel fills its [step][xyz][slot] thermal-field block
  /// with one call per noise block. Preconditions: the lane_of[a] are
  /// distinct and stride >= lanes when n > 1.
  static void normal_fill_lanes(Rng* rngs, const std::size_t* lane_of,
                                std::size_t lanes, std::size_t n, double* out,
                                std::size_t stride);

  /// normal_fill_lanes at an explicit level, so tests can check each level
  /// the host supports. Precondition: lane_fill_supported(level).
  static void normal_fill_lanes(LaneFill level, Rng* rngs,
                                const std::size_t* lane_of, std::size_t lanes,
                                std::size_t n, double* out,
                                std::size_t stride);

  /// Exponentially tilted normal_fill: out[k] = z_k + tilt[k % period] where
  /// the z_k are *exactly* the deviates normal_fill would have produced --
  /// the raw draw stream (including fallback consumption) is untouched, so
  /// an all-zero tilt reproduces normal_fill bit for bit, and a tilted run
  /// consumes the same engine state as an untilted one. The importance
  /// sampler's likelihood-ratio bookkeeping relies on this: the tilt is a
  /// deterministic mean shift applied after the draw, never a change to the
  /// sampling path. Precondition: period > 0.
  void normal_fill_tilted(double* out, std::size_t n, const double* tilt,
                          std::size_t period);

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t below(std::uint64_t n);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Counter-based split: the `index`-th independent stream of a master
  /// `seed`. It needs no shared parent state, so parallel trial i can
  /// derive its stream directly from (seed, i) -- the engine's Monte Carlo
  /// runner uses this to make results independent of the thread count and
  /// the scheduling order.
  static Rng stream(std::uint64_t seed, std::uint64_t index);

 private:
  std::uint64_t next();

  /// One ziggurat draw (the normal_fill stream).
  double zig_draw();

  /// Completes one ziggurat draw whose first strip test rejected (wedge,
  /// tail and retry paths; out of line, ~2.5% of draws).
  double zig_fallback(std::uint64_t b);

  /// The per-level normal_fill_lanes loops (rng.cpp).
  struct LaneKernels;

  std::uint64_t state_[4];
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace mram::util

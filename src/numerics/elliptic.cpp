#include "numerics/elliptic.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "util/error.h"

namespace mram::num {

namespace {

// --- batched K and E -----------------------------------------------------------
//
// The scalar Carlson forms carlson_rf(0, 1 - m, 1) and
// carlson_rd(0, 1 - m, 1) run the same duplication sequence: the same
// square roots, lambda and (xt, yt, zt) updates per iteration. They differ
// only in their averages, in R_D's running sum, and in their stopping
// tests. One loop therefore steps both, and each value's R_F state (avg,
// dx, dy, dz) and R_D state (sum, factor, avg, dx, dy, dz) are taken
// exactly where the scalar loop would break, and then held. Each value sees
// the operations of the scalar functions in their order; a value whose R_F
// and R_D have both stopped keeps duplicating until its block does, but
// nothing reads that. Lanes are elementwise with fp contraction off, so the
// lane width cannot move a bit.
// The scalar forms, and ellint_k/ellint_e on them, are the tests' reference
// (tests/support/elliptic_ref.h).

/// W doubles, and W 64-bit lane masks (all ones or zero), as GCC vectors:
/// their arithmetic is elementwise, a comparison gives a mask and
/// `mask ? a : b` selects per lane without a branch. GCC lowers them to
/// whatever the function's instruction set has. One lane is a plain double
/// and a plain integer, the same code as scalars (a one-element vector
/// measured ~20% slower per value).
template <std::size_t W>
struct Lanes {
  typedef double V __attribute__((vector_size(W * sizeof(double))));
  typedef std::int64_t M __attribute__((vector_size(W * sizeof(double))));
};
template <>
struct Lanes<1> {
  using V = double;
  using M = std::int64_t;
};

// The helpers below take and return vectors by reference: a 64-byte vector
// passed by value has a different ABI with and without AVX-512, which GCC
// warns about (-Wpsabi) even where the call is inlined.

/// Replaces each lane of v by its square root.
template <typename V>
[[gnu::always_inline]] inline void sqrt_lanes(V& v) {
  if constexpr (std::is_same_v<V, double>) {
    v = std::sqrt(v);
  } else {
    for (std::size_t j = 0; j < sizeof(V) / sizeof(double); ++j) {
      v[j] = std::sqrt(v[j]);
    }
  }
}

/// Clears the lanes of `live` whose three deviations are all below
/// kCarlsonTol in magnitude: carlson_rf's and carlson_rd's stopping test,
/// lane by lane.
template <typename M, typename V>
[[gnu::always_inline]] inline void stop_converged(M& live, const V& dx,
                                                  const V& dy, const V& dz) {
  // Each comparison feeds one select: AVX-512F (without DQ) has no
  // instruction that turns a comparison's mask register into a vector, and
  // GCC 12 goes scalar when a comparison's value is combined with `&`.
  const V zero{};
  const V ax = dx < zero ? -dx : dx;
  const V ay = dy < zero ? -dy : dy;
  const V az = dz < zero ? -dz : dz;
  const V axy = ax < ay ? ay : ax;
  const V dev = axy < az ? az : axy;
  live = dev < zero + kCarlsonTol ? M{} : live;
}

/// K and E for the W values at m, all W stepped in lockstep until every
/// one has stopped both R_F and R_D (or the iteration cap). Written once
/// for every width: at W = 8 each state is one zmm (two ymm), at W = 1 it
/// is the fused scalar loop.
template <std::size_t W>
[[gnu::always_inline]] inline void ke_lanes(const double* m, double* k,
                                            double* e) {
  using V = typename Lanes<W>::V;
  using M = typename Lanes<W>::M;
  V mm;
  std::memcpy(&mm, m, sizeof mm);
  V xt = V{};
  V yt = 1.0 - mm;
  V zt = V{} + 1.0;
  V f_avg{}, f_dx{}, f_dy{}, f_dz{};
  V d_sum{}, d_avg{}, d_dx{}, d_dy{}, d_dz{};
  V d_factor = V{} + 1.0;
  M f_live = M{} - 1;
  M d_live = M{} - 1;
  for (int iter = 0; iter < kCarlsonMaxIter; ++iter) {
    V sx = xt, sy = yt, sz = zt;
    sqrt_lanes(sx);
    sqrt_lanes(sy);
    sqrt_lanes(sz);
    const V lambda = sx * (sy + sz) + sy * sz;
    const V term = d_factor / (sz * (zt + lambda));
    xt = 0.25 * (xt + lambda);
    yt = 0.25 * (yt + lambda);
    zt = 0.25 * (zt + lambda);

    const V fa = (xt + yt + zt) / 3.0;
    const V fdx = (fa - xt) / fa;
    const V fdy = (fa - yt) / fa;
    const V fdz = (fa - zt) / fa;
    f_avg = f_live ? fa : f_avg;
    f_dx = f_live ? fdx : f_dx;
    f_dy = f_live ? fdy : f_dy;
    f_dz = f_live ? fdz : f_dz;
    stop_converged(f_live, fdx, fdy, fdz);

    const V da = (xt + yt + 3.0 * zt) / 5.0;
    const V ddx = (da - xt) / da;
    const V ddy = (da - yt) / da;
    const V ddz = (da - zt) / da;
    d_sum = d_live ? d_sum + term : d_sum;
    d_factor = d_live ? d_factor * 0.25 : d_factor;
    d_avg = d_live ? da : d_avg;
    d_dx = d_live ? ddx : d_dx;
    d_dy = d_live ? ddy : d_dy;
    d_dz = d_live ? ddz : d_dz;
    stop_converged(d_live, ddx, ddy, ddz);

    const M live = f_live | d_live;
    std::int64_t any = 0;
    if constexpr (W == 1) {
      any = live;
    } else {
      for (std::size_t j = 0; j < W; ++j) any |= live[j];
    }
    if (any == 0) break;
  }
  V f_root = f_avg, d_root = d_avg;
  sqrt_lanes(f_root);
  sqrt_lanes(d_root);
  // carlson_rf's closing series.
  const V e2 = f_dx * f_dy - f_dz * f_dz;
  const V e3 = f_dx * f_dy * f_dz;
  const V rf = (1.0 + (e2 / 24.0 - 0.1 - 3.0 * e3 / 44.0) * e2 + e3 / 14.0) /
               f_root;
  // carlson_rd's closing series.
  const V ea = d_dx * d_dy;
  const V eb = d_dz * d_dz;
  const V ec = ea - eb;
  const V ed = ea - 6.0 * eb;
  const V ee = ed + ec + ec;
  const V dz = d_dz;
  const V rd =
      3.0 * d_sum +
      d_factor *
          (1.0 + ed * (-3.0 / 14.0 + 9.0 / 88.0 * ed - 4.5 / 26.0 * dz * ee) +
           dz * (1.0 / 6.0 * ee + dz * (-9.0 / 22.0 * ec + 3.0 / 26.0 * dz * ea))) /
          (d_avg * d_root);
  const V ev = rf - mm / 3.0 * rd;
  std::memcpy(k, &rf, sizeof rf);
  std::memcpy(e, &ev, sizeof ev);
}

/// Full blocks of kKeLanes values in lockstep, then the tail one by one.
[[gnu::always_inline]] inline void ke_body(std::size_t n, const double* m,
                                           double* k, double* e) {
  std::size_t i = 0;
  for (; i + kKeLanes <= n; i += kKeLanes) {
    ke_lanes<kKeLanes>(m + i, k + i, e + i);
  }
  for (; i < n; ++i) ke_lanes<1>(m + i, k + i, e + i);
}

// Runtime-dispatched instruction set, as for the bitline ladder solve
// (bitline.cpp): target_clones emits an AVX-512F, an AVX2 and a baseline
// clone plus an ifunc resolver picked at load time. The body must be
// always_inline: without it GCC compiles ke_lanes once, for the baseline,
// and every clone calls that one SSE2 body.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define MRAM_KE_X86 1
#define MRAM_KE_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define MRAM_KE_X86 0
#define MRAM_KE_CLONES
#endif

/// The kernel of every ellint_ke_n call. noinline keeps its call going
/// through the resolver under LTO; aligned(64) starts each clone on a
/// cache line whatever code around it changes.
[[gnu::noinline, gnu::aligned(64)]] MRAM_KE_CLONES void ke_batch(
    std::size_t n, const double* m, double* k, double* e) {
  ke_body(n, m, k, e);
}

// The same body at one fixed level each, for ellint_ke_n(KeLevel, ...) in
// tests; ellint_ke_n itself only goes through the clones above.
#if MRAM_KE_X86
[[gnu::noinline]] __attribute__((target("avx512f"))) void ke_avx512(
    std::size_t n, const double* m, double* k, double* e) {
  ke_body(n, m, k, e);
}

[[gnu::noinline]] __attribute__((target("avx2"))) void ke_avx2(
    std::size_t n, const double* m, double* k, double* e) {
  ke_body(n, m, k, e);
}
#endif

[[gnu::noinline]] void ke_portable(std::size_t n, const double* m, double* k,
                                   double* e) {
  ke_body(n, m, k, e);
}

void expect_ke_domain(std::size_t n, const double* m) {
  for (std::size_t i = 0; i < n; ++i) {
    MRAM_EXPECTS(m[i] >= 0.0 && m[i] < 1.0, "ellint_ke_n requires m in [0,1)");
  }
}

}  // namespace

void ellint_ke_n(std::size_t n, const double* m, double* k, double* e) {
  expect_ke_domain(n, m);
  ke_batch(n, m, k, e);
}

bool ke_level_supported(KeLevel level) {
#if MRAM_KE_X86
  __builtin_cpu_init();
  if (level == KeLevel::kAvx512) return __builtin_cpu_supports("avx512f");
  if (level == KeLevel::kAvx2) return __builtin_cpu_supports("avx2");
#endif
  return level == KeLevel::kPortable;
}

void ellint_ke_n(KeLevel level, std::size_t n, const double* m, double* k,
                 double* e) {
  MRAM_EXPECTS(ke_level_supported(level),
               "ellint_ke_n: level not supported on this CPU");
  expect_ke_domain(n, m);
#if MRAM_KE_X86
  if (level == KeLevel::kAvx512) return ke_avx512(n, m, k, e);
  if (level == KeLevel::kAvx2) return ke_avx2(n, m, k, e);
#endif
  ke_portable(n, m, k, e);
}

}  // namespace mram::num

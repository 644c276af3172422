#include "util/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/error.h"

// The AVX2 and AVX-512F levels of normal_fill_lanes are compiled with
// per-function target attributes and dispatched at run time, so the
// portable build needs no ISA flags.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
// GCC 12 flags the header's own _mm512_undefined_* placeholders as maybe
// uninitialized once they are inlined; the warning is about the header.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#define MRAM_RNG_X86_LANES 1
#else
#define MRAM_RNG_X86_LANES 0
#endif

namespace mram::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t v, int k) {
  return (v << k) | (v >> (64 - k));
}

// --- ziggurat tables for normal_fill() --------------------------------------
//
// Marsaglia--Tsang ziggurat with 128 strips: ~97.5% of draws are one next(),
// one multiply and one compare. The strip edges x_i and ordinates
// f_i = exp(-x_i^2/2) are committed as exact hex literals (generated once
// with the recurrence below) so the sampler does not depend on the build
// machine's libm at setup time:
//
//   r = 3.442619855899, V = 9.91256303526217e-3 (tail cut and strip area)
//   x_0 = V / f(r), x_1 = r, x_128 = 0,
//   x_i = sqrt(-2 ln(V / x_{i-1} + f(x_{i-1})))        for i = 2..127.
//
// Only the rare wedge/tail paths (~2.5%) call std::exp / std::log.

constexpr int kZigStrips = 128;
constexpr double kZigR = 3.442619855899;

constexpr double kZigX[kZigStrips + 1] = {
    0x1.db4668fe7e4a4p+1,    0x1.b8a7c476d2be8p+1,
    0x1.9c8e0c7c8098fp+1,    0x1.8aa73e440ffbcp+1,
    0x1.7d45eb36eb842p+1,    0x1.7279dd4ac3f9dp+1,
    0x1.695c2be68edc9p+1,    0x1.616dff7c8f54ap+1,
    0x1.5a61edf7e8f32p+1,    0x1.54052012a04a4p+1,
    0x1.4e3456b0e3a1bp+1,    0x1.48d61806d601p+1,
    0x1.43d75b60bca1dp+1,    0x1.3f29848d3b416p+1,
    0x1.3ac11b8e206d6p+1,    0x1.3694f3a3740d9p+1,
    0x1.329d9725e32f7p+1,    0x1.2ed4df8099571p+1,
    0x1.2b35aa5ebee3ep+1,    0x1.27bba2b5dbc92p+1,
    0x1.246317a6b53cp+1,    0x1.2128dd36bdf09p+1,
    0x1.1e0a342cf08f6p+1,    0x1.1b04b731f6bccp+1,
    0x1.18164be0c1c39p+1,    0x1.153d16d45743dp+1,
    0x1.12777201834f3p+1,    0x1.0fc3e4d95f278p+1,
    0x1.0d211dd28b00fp+1,    0x1.0a8ded0ec371ap+1,
    0x1.08093fe3e40e1p+1,    0x1.05921d1c4d769p+1,
    0x1.0327a1cc4cf5ep+1,    0x1.00c8fea1720d4p+1,
    0x1.fceaeb2ca5f17p+0,    0x1.f858aff31cbfp+0,
    0x1.f3da097460823p+0,    0x1.ef6dcddc7d392p+0,
    0x1.eb12e91486bbcp+0,    0x1.e6c85a849b015p+0,
    0x1.e28d331c6723cp+0,    0x1.de609397e09b9p+0,
    0x1.da41aaf79a344p+0,    0x1.d62fb52580b86p+0,
    0x1.d229f9bfeefdbp+0,    0x1.ce2fcb05f8c34p+0,
    0x1.ca4084e091e34p+0,    0x1.c65b8c04dbac2p+0,
    0x1.c2804d2c6b16fp+0,    0x1.beae3c60cd0e4p+0,
    0x1.bae4d457ee119p+0,    0x1.b72395df5b73bp+0,
    0x1.b36a075498d64p+0,    0x1.afb7b428fe7a1p+0,
    0x1.ac0c2c6fc6382p+0,    0x1.a867047516e4fp+0,
    0x1.a4c7d45d01a31p+0,    0x1.a12e37c983369p+0,
    0x1.9d99cd86b58b4p+0,    0x1.9a0a373c73f21p+0,
    0x1.967f1924c7b06p+0,    0x1.92f819c682bf5p+0,
    0x1.8f74e1b37c6b8p+0,    0x1.8bf51b49ef337p+0,
    0x1.88787278810a6p+0,    0x1.84fe9484873b9p+0,
    0x1.81872fd21db73p+0,    0x1.7e11f3adaeb92p+0,
    0x1.7a9e90168b8eep+0,    0x1.772cb58a39dd6p+0,
    0x1.73bc14d01a2c9p+0,    0x1.704c5ec50cb81p+0,
    0x1.6cdd4426b88a5p+0,    0x1.696e755e16b84p+0,
    0x1.65ffa248e016dp+0,    0x1.62907a0176ebfp+0,
    0x1.5f20aaa4dfc1ap+0,    0x1.5bafe11654817p+0,
    0x1.583dc8bff3219p+0,    0x1.54ca0b4ffd349p+0,
    0x1.515450720f455p+0,    0x1.4ddc3d83a5b84p+0,
    0x1.4a617543306ccp+0,    0x1.46e39778de063p+0,
    0x1.436240982ad9dp+0,    0x1.3fdd09591d2a4p+0,
    0x1.3c538647ef792p+0,    0x1.38c54749b9033p+0,
    0x1.3531d7146a43ep+0,    0x1.3198ba982d911p+0,
    0x1.2df97057e7efbp+0,    0x1.2a536fae30e33p+0,
    0x1.26a627fb9d12p+0,    0x1.22f0ffbaa1e55p+0,
    0x1.1f335374a10f8p+0,    0x1.1b6c7492c9735p+0,
    0x1.179ba80463fecp+0,    0x1.13c024b2c7ec6p+0,
    0x1.0fd911b97f236p+0,    0x1.0be58456ff4aep+0,
    0x1.07e47d87a40f6p+0,    0x1.03d4e7391c5b7p+0,
    0x1.ff6b21fffe31ap-1,    0x1.f70a5866c8f46p-1,
    0x1.ee848e956826fp-1,    0x1.e5d6909f51b6ap-1,
    0x1.dcfccc51c59fp-1,    0x1.d3f340dda611cp-1,
    0x1.cab56ac6a38d3p-1,    0x1.c13e2b014e85cp-1,
    0x1.b787a7c516f3bp-1,    0x1.ad8b2506a137cp-1,
    0x1.a340d1baf5b18p-1,    0x1.989f85c753b2cp-1,
    0x1.8d9c6a9d35e3dp-1,    0x1.822a858af0e7dp-1,
    0x1.763a1600eec74p-1,    0x1.69b7b213f3f69p-1,
    0x1.5c8afdbf0217bp-1,    0x1.4e94c08c0bab7p-1,
    0x1.3fabee1911cd7p-1,    0x1.2f98d6bb4f41fp-1,
    0x1.1e0ce6b5969b3p-1,    0x1.0a936da5e55adp-1,
    0x1.e8e576e43fbefp-2,    0x1.b4c8fece48e83p-2,
    0x1.73949184db9dfp-2,    0x1.16db47e193e1ap-2,
    0x0p+0,
};
constexpr double kZigF[kZigStrips + 1] = {
    0x1.09e80c5ba8b5bp-10,    0x1.5de9e33726f2p-9,
    0x1.6ba8b0ffb627ep-8,    0x1.1a9b6b3fc1937p-7,
    0x1.83f4bed19339ap-7,    0x1.f100847645165p-7,
    0x1.309cee4e09981p-6,    0x1.6a23fa9d5f276p-6,
    0x1.a4f57a25d9cbdp-6,    0x1.e0f951d57e236p-6,
    0x1.0f0e539c89b76p-5,    0x1.2e282b724adacp-5,
    0x1.4dc3fcbd99702p-5,    0x1.6ddc9dd1fe248p-5,
    0x1.8e6db483bc1bbp-5,    0x1.af738c17a5016p-5,
    0x1.d0eaf63395868p-5,    0x1.f2d13368bd127p-5,
    0x1.0a91f09183c33p-4,    0x1.1bf075c20a9fep-4,
    0x1.2d8341133a33bp-4,    0x1.3f4987896ad6ap-4,
    0x1.514297b239a5bp-4,    0x1.636dd69e8c211p-4,
    0x1.75cabd60e5dbbp-4,    0x1.8858d6f54ff3p-4,
    0x1.9b17be7e63eebp-4,    0x1.ae071dc7af28fp-4,
    0x1.c126ac011775fp-4,    0x1.d4762ca983a5ap-4,
    0x1.e7f56ea105fbcp-4,    0x1.fba44b5c4de8bp-4,
    0x1.07c1531a2b49bp-3,    0x1.11c835e71b728p-3,
    0x1.1be6c8cbda96fp-3,    0x1.261d0aaaebe72p-3,
    0x1.306afe6193144p-3,    0x1.3ad0aa9dd7fa4p-3,
    0x1.454e19baa0e72p-3,    0x1.4fe359a138234p-3,
    0x1.5a907baface5fp-3,    0x1.655594a396d54p-3,
    0x1.7032bc88d676ap-3,    0x1.7b280eabfd4b9p-3,
    0x1.8635a99016373p-3,    0x1.915baee792bfp-3,
    0x1.9c9a43902c0f3p-3,    0x1.a7f18f918fb5cp-3,
    0x1.b361be1eb801cp-3,    0x1.beeafd99d710fp-3,
    0x1.ca8d7f9ac2021p-3,    0x1.d64978f7cf9d6p-3,
    0x1.e21f21d12332ep-3,    0x1.ee0eb59e61862p-3,
    0x1.fa18733ed2789p-3,    0x1.031e4e85fb6a1p-2,
    0x1.093dbc774f1ap-2,    0x1.0f6aa83b46cf7p-2,
    0x1.15a5387a66034p-2,    0x1.1bed95cc5751fp-2,
    0x1.2243eac7e2068p-2,    0x1.28a864146107ep-2,
    0x1.2f1b307ccfe9ap-2,    0x1.359c810485cb7p-2,
    0x1.3c2c88fdb8ddp-2,    0x1.42cb7e21e8c52p-2,
    0x1.497998ac51ea1p-2,    0x1.503713768fb3fp-2,
    0x1.57042c17986d6p-2,    0x1.5de12305426e6p-2,
    0x1.64ce3bb887d89p-2,    0x1.6bcbbcd4c4723p-2,
    0x1.72d9f05230366p-2,    0x1.79f923abe1175p-2,
    0x1.8129a811a7651p-2,    0x1.886bd29e22628p-2,
    0x1.8fbffc917614cp-2,    0x1.97268391186b6p-2,
    0x1.9e9fc9ed3ad0ap-2,    0x1.a62c36ec664dap-2,
    0x1.adcc371df4166p-2,    0x1.b5803cb422f1dp-2,
    0x1.bd48bfe6a41dfp-2,    0x1.c5263f5e989cp-2,
    0x1.cd1940ad1b14p-2,    0x1.d52250cd9b948p-2,
    0x1.dd4204b58297ep-2,    0x1.e578f9f2c936cp-2,
    0x1.edc7d75b77106p-2,    0x1.f62f4dd04549dp-2,
    0x1.feb0191503b06p-2,    0x1.03a58060e667cp-1,
    0x1.08006ca84ddep-1,    0x1.0c6942a5bbca5p-1,
    0x1.10e07b5015e52p-1,    0x1.1566980fb8bacp-1,
    0x1.19fc239747fabp-1,    0x1.1ea1b2d9efcb5p-1,
    0x1.2357e62428f89p-1,    0x1.281f6a5d2446ap-1,
    0x1.2cf8fa78591b5p-1,    0x1.31e5612065cfcp-1,
    0x1.36e57aa698262p-1,    0x1.3bfa374538788p-1,
    0x1.41249dc646445p-1,    0x1.4665cea500fb2p-1,
    0x1.4bbf07c6c217dp-1,    0x1.5131a8efe6179p-1,
    0x1.56bf39249a236p-1,    0x1.5c696d348e881p-1,
    0x1.62322fc593a59p-1,    0x1.681bab4ebdc18p-1,
    0x1.6e2856a006c14p-1,    0x1.745b04d027f1cp-1,
    0x1.7ab6f9c656c14p-1,    0x1.814005219cc6ep-1,
    0x1.87faa61a739e6p-1,    0x1.8eec3c5bbfb34p-1,
    0x1.961b4c1afe57ap-1,    0x1.9d8fdfaec7beap-1,
    0x1.a55418110d29fp-1,    0x1.ad750b7255a18p-1,
    0x1.b6042cf903cb5p-1,    0x1.bf19b6810e602p-1,
    0x1.c8d923f9e066ep-1,    0x1.d37a74ffb7e3fp-1,
    0x1.df6071934c096p-1,    0x1.ed5cf060d53bbp-1,
    0x1p+0,
};

static_assert(kZigX[1] == kZigR);

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  has_spare_ = false;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  MRAM_EXPECTS(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

double Rng::normal(double mean, double sigma) {
  MRAM_EXPECTS(sigma >= 0.0, "normal() requires sigma >= 0");
  return mean + sigma * normal();
}

namespace {

// The sign comes from bit 7 via a branch-free bit-OR into the IEEE sign
// bit (a 50/50 sign *branch* would mispredict half the time and dominate
// the whole sampler).
inline double zig_signed_by_bit7(double magnitude, std::uint64_t b) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(magnitude) |
                               ((b & 0x80ULL) << 56));
}

}  // namespace

double Rng::zig_fallback(std::uint64_t b) {
  for (;;) {
    const int i = static_cast<int>(b & 0x7F);
    const double au = static_cast<double>(b >> 11) * 0x1.0p-53;  // [0, 1)
    const double x = au * kZigX[i];
    if (x < kZigX[i + 1]) return zig_signed_by_bit7(x, b);
    if (i == 0) {
      // Tail beyond r: Marsaglia's exact exponential-rejection sampler.
      double xt, yt;
      do {
        double u1, u2;
        do {
          u1 = uniform();
        } while (u1 == 0.0);
        do {
          u2 = uniform();
        } while (u2 == 0.0);
        xt = -std::log(u1) / kZigR;
        yt = -std::log(u2);
      } while (yt + yt < xt * xt);
      return zig_signed_by_bit7(kZigR + xt, b);
    }
    // Wedge between the strip rectangle and the density.
    const double y = kZigF[i] + uniform() * (kZigF[i + 1] - kZigF[i]);
    if (y < std::exp(-0.5 * x * x)) return zig_signed_by_bit7(x, b);
    b = next();
  }
}

void Rng::normal_fill(double* out, std::size_t n) {
  // Ziggurat (Marsaglia & Tsang 2000): one 64-bit draw yields disjoint
  // fields -- bits 0..6 the strip index, bit 7 the sign, bits 11..63 the
  // 53-bit magnitude -- so the frequent path (~97.5%) costs one next(), one
  // multiply and one compare, about 2.5x cheaper per value than normal()'s
  // polar method. Deliberately NOT the same value stream as normal():
  // normal() keeps the legacy cached-spare polar sampler bit-for-bit
  // because the committed golden CSVs (and every seeded variation ensemble)
  // depend on its exact draws. normal_fill is the sampler for bulk
  // consumers -- the scalar and batched stochastic-LLG thermal fields both
  // draw through it, which is what keeps those two paths bit-identical to
  // each other. Self-consistency contract: one fill of n values equals any
  // split sequence of smaller fills on the same engine (no hidden state).
  for (std::size_t k = 0; k < n; ++k) out[k] = zig_draw();
}

double Rng::zig_draw() {
  const std::uint64_t b = next();
  const int i = static_cast<int>(b & 0x7F);
  const double au = static_cast<double>(b >> 11) * 0x1.0p-53;  // [0, 1)
  const double x = au * kZigX[i];
  return (x < kZigX[i + 1]) ? zig_signed_by_bit7(x, b) : zig_fallback(b);
}

void Rng::normal_fill_tilted(double* out, std::size_t n, const double* tilt,
                             std::size_t period) {
  MRAM_EXPECTS(period > 0, "normal_fill_tilted requires period > 0");
  // Draw first, shift second: the raw stream must match normal_fill exactly
  // so tilted and untilted runs consume identical engine state and a zero
  // tilt degenerates to normal_fill bitwise.
  normal_fill(out, n);
  std::size_t c = 0;
  for (std::size_t k = 0; k < n; ++k) {
    out[k] += tilt[c];
    if (++c == period) c = 0;
  }
}

// --- normal_fill_lanes ------------------------------------------------------
//
// The vector levels share one shape. Lanes go in groups of up to kGroup: a
// group's engine states are copied into lane-major arrays, stepped together
// for k = 0..n-1 (one engine per SIMD element), and copied back at the end.
// At each k every lane draws b and runs the strip test, and the accepted
// values go straight to row k of out. When a real lane rejects, the group's
// state is spilled and each rejecting lane, in lane order, finishes its
// draw with zig_fallback(b) on its own engine -- which may consume further
// raw draws -- before the group resumes at k + 1. Each engine therefore
// consumes exactly its solo normal_fill sequence at every level and width.
// The vector levels reproduce the scalar strip test operation for
// operation. b >> 11 converts to double exactly without AVX-512DQ: its high
// 21 and low 32 bits each go into the mantissa of a double with a fixed
// exponent (2^84 and 2^52), and (hi - (2^84 + 2^52)) + lo is exact because
// every intermediate fits in 53 bits. The product au * kZigX[i] is then one
// rounded multiply, and the compare is the same ordered less-than.

struct Rng::LaneKernels {
  static constexpr std::size_t kGroup = 16;
  using State = std::uint64_t[4][kGroup];

  /// Copies the group's engine states into st; padding lanes get state 0.
  static void load(const Rng* rngs, const std::size_t* lane_of, std::size_t g,
                   State st) {
    for (std::size_t a = 0; a < kGroup; ++a) {
      for (int w = 0; w < 4; ++w) {
        st[w][a] = (a < g) ? rngs[lane_of[a]].state_[w] : 0;
      }
    }
  }

  static void store(Rng* rngs, const std::size_t* lane_of, std::size_t g,
                    const State st) {
    for (std::size_t a = 0; a < g; ++a) {
      for (int w = 0; w < 4; ++w) rngs[lane_of[a]].state_[w] = st[w][a];
    }
  }

  /// Finishes the rejected draws b[a] of the lanes set in `rejected`, in
  /// lane order, each on its own engine, writing the values to row[a] and
  /// the advanced states back to st.
  static void replay(Rng* rngs, const std::size_t* lane_of, State st,
                     const std::uint64_t* b, std::uint32_t rejected,
                     double* row) {
    for (; rejected != 0; rejected &= rejected - 1) {
      const int a = std::countr_zero(rejected);
      Rng& rng = rngs[lane_of[a]];
      for (int w = 0; w < 4; ++w) rng.state_[w] = st[w][a];
      row[a] = rng.zig_fallback(b[a]);
      for (int w = 0; w < 4; ++w) st[w][a] = rng.state_[w];
    }
  }

  // The portable level needs no state copies: it interleaves the engines'
  // own solo draws, lane by lane, which keeps several independent xoshiro
  // chains in flight.
  static void portable(Rng* rngs, const std::size_t* lane_of, std::size_t g,
                       std::size_t n, double* out, std::size_t stride) {
    for (std::size_t k = 0; k < n; ++k) {
      double* row = out + k * stride;
      for (std::size_t a = 0; a < g; ++a) row[a] = rngs[lane_of[a]].zig_draw();
    }
  }

#if MRAM_RNG_X86_LANES
  // The vector levels keep a group's four state words in registers as
  // s[word][vector]; the loops over words and vectors are fully unrolled so
  // the arrays never touch memory. Helpers are target-attributed member
  // functions rather than lambdas, because a lambda does not inherit its
  // caller's target.

  template <int V>
  __attribute__((target("avx2"))) static void to_regs(const State st,
                                                      __m256i (&s)[4][V]) {
    #pragma GCC unroll 4
    for (int w = 0; w < 4; ++w) {
      #pragma GCC unroll 4
      for (int j = 0; j < V; ++j) {
        s[w][j] = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(&st[w][4 * j]));
      }
    }
  }

  template <int V>
  __attribute__((target("avx2"))) static void to_state(
      const __m256i (&s)[4][V], State st) {
    #pragma GCC unroll 4
    for (int w = 0; w < 4; ++w) {
      #pragma GCC unroll 4
      for (int j = 0; j < V; ++j) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(&st[w][4 * j]),
                           s[w][j]);
      }
    }
  }

  __attribute__((target("avx2"))) static __m256i rotl4(__m256i v, int k) {
    return _mm256_or_si256(_mm256_slli_epi64(v, k),
                           _mm256_srli_epi64(v, 64 - k));
  }

  // V ymm vectors of 4 lanes each; V = ceil(g / 4), so only the last
  // vector can be partial. About twice as fast as the portable level at 12
  // and 16 lanes (forced through the explicit-level overload).
  template <int V>
  __attribute__((target("avx2"))) static void avx2(
      Rng* rngs, const std::size_t* lane_of, std::size_t g, std::size_t n,
      double* out, std::size_t stride) {
    alignas(32) State st;
    alignas(32) std::uint64_t b_spill[kGroup];
    load(rngs, lane_of, g, st);
    __m256i s[4][V];
    to_regs<V>(st, s);
    const std::uint32_t real = (1u << g) - 1;
    const __m256i tail_real = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(g - 4 * (V - 1))),
        _mm256_setr_epi64x(0, 1, 2, 3));
    const __m256i strip = _mm256_set1_epi64x(0x7F);
    const __m256i sign = _mm256_set1_epi64x(0x80);
    const __m256i low32 = _mm256_set1_epi64x(0xFFFFFFFFLL);
    const __m256i exp52 = _mm256_set1_epi64x(0x4330000000000000LL);
    const __m256i exp84 = _mm256_set1_epi64x(0x4530000000000000LL);
    const __m256d magic = _mm256_set1_pd(0x1.00000001p84);  // 2^84 + 2^52
    const __m256d unit = _mm256_set1_pd(0x1.0p-53);
    for (std::size_t k = 0; k < n; ++k) {
      double* row = out + k * stride;
      __m256i b[V];
      std::uint32_t accepted = 0;
      #pragma GCC unroll 4
      for (int j = 0; j < V; ++j) {
        __m256i& s0 = s[0][j];
        __m256i& s1 = s[1][j];
        __m256i& s2 = s[2][j];
        __m256i& s3 = s[3][j];
        b[j] = _mm256_add_epi64(rotl4(_mm256_add_epi64(s0, s3), 23), s0);
        const __m256i t = _mm256_slli_epi64(s1, 17);
        s2 = _mm256_xor_si256(s2, s0);
        s3 = _mm256_xor_si256(s3, s1);
        s1 = _mm256_xor_si256(s1, s2);
        s0 = _mm256_xor_si256(s0, s3);
        s2 = _mm256_xor_si256(s2, t);
        s3 = rotl4(s3, 45);

        const __m256i idx = _mm256_and_si256(b[j], strip);
        const __m256i m = _mm256_srli_epi64(b[j], 11);
        const __m256d hi = _mm256_sub_pd(
            _mm256_castsi256_pd(
                _mm256_or_si256(_mm256_srli_epi64(m, 32), exp84)),
            magic);
        const __m256d lo = _mm256_castsi256_pd(
            _mm256_or_si256(_mm256_and_si256(m, low32), exp52));
        const __m256d au = _mm256_mul_pd(_mm256_add_pd(hi, lo), unit);
        const __m256d x =
            _mm256_mul_pd(au, _mm256_i64gather_pd(kZigX, idx, 8));
        const __m256d ok = _mm256_cmp_pd(
            x, _mm256_i64gather_pd(kZigX + 1, idx, 8), _CMP_LT_OQ);
        const __m256d z = _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_castpd_si256(x),
            _mm256_slli_epi64(_mm256_and_si256(b[j], sign), 56)));
        if (j + 1 < V) {
          _mm256_storeu_pd(row + 4 * j, z);
        } else {
          _mm256_maskstore_pd(row + 4 * j, tail_real, z);
        }
        accepted |= static_cast<std::uint32_t>(_mm256_movemask_pd(ok))
                    << (4 * j);
      }
      const std::uint32_t rejected = real & ~accepted;
      if (rejected != 0) {
        to_state<V>(s, st);
        #pragma GCC unroll 4
        for (int j = 0; j < V; ++j) {
          _mm256_store_si256(reinterpret_cast<__m256i*>(&b_spill[4 * j]),
                             b[j]);
        }
        replay(rngs, lane_of, st, b_spill, rejected, row);
        to_regs<V>(st, s);
      }
    }
    to_state<V>(s, st);
    store(rngs, lane_of, g, st);
  }

  template <int V>
  __attribute__((target("avx512f"))) static void to_regs(const State st,
                                                         __m512i (&s)[4][V]) {
    #pragma GCC unroll 4
    for (int w = 0; w < 4; ++w) {
      #pragma GCC unroll 4
      for (int j = 0; j < V; ++j) s[w][j] = _mm512_load_si512(&st[w][8 * j]);
    }
  }

  template <int V>
  __attribute__((target("avx512f"))) static void to_state(
      const __m512i (&s)[4][V], State st) {
    #pragma GCC unroll 4
    for (int w = 0; w < 4; ++w) {
      #pragma GCC unroll 4
      for (int j = 0; j < V; ++j) _mm512_store_si512(&st[w][8 * j], s[w][j]);
    }
  }

  // V zmm vectors of 8 lanes each; V = ceil(g / 8).
  template <int V>
  __attribute__((target("avx512f"))) static void avx512(
      Rng* rngs, const std::size_t* lane_of, std::size_t g, std::size_t n,
      double* out, std::size_t stride) {
    alignas(64) State st;
    alignas(64) std::uint64_t b_spill[kGroup];
    load(rngs, lane_of, g, st);
    __m512i s[4][V];
    to_regs<V>(st, s);
    const std::uint32_t real = (1u << g) - 1;
    const auto tail_real =
        static_cast<__mmask8>((1u << (g - 8 * (V - 1))) - 1);
    const __m512i strip = _mm512_set1_epi64(0x7F);
    const __m512i sign = _mm512_set1_epi64(0x80);
    const __m512i low32 = _mm512_set1_epi64(0xFFFFFFFFLL);
    const __m512i exp52 = _mm512_set1_epi64(0x4330000000000000LL);
    const __m512i exp84 = _mm512_set1_epi64(0x4530000000000000LL);
    const __m512d magic = _mm512_set1_pd(0x1.00000001p84);  // 2^84 + 2^52
    const __m512d unit = _mm512_set1_pd(0x1.0p-53);
    for (std::size_t k = 0; k < n; ++k) {
      double* row = out + k * stride;
      __m512i b[V];
      std::uint32_t accepted = 0;
      #pragma GCC unroll 4
      for (int j = 0; j < V; ++j) {
        __m512i& s0 = s[0][j];
        __m512i& s1 = s[1][j];
        __m512i& s2 = s[2][j];
        __m512i& s3 = s[3][j];
        b[j] = _mm512_add_epi64(
            _mm512_rol_epi64(_mm512_add_epi64(s0, s3), 23), s0);
        const __m512i t = _mm512_slli_epi64(s1, 17);
        s2 = _mm512_xor_si512(s2, s0);
        s3 = _mm512_xor_si512(s3, s1);
        s1 = _mm512_xor_si512(s1, s2);
        s0 = _mm512_xor_si512(s0, s3);
        s2 = _mm512_xor_si512(s2, t);
        s3 = _mm512_rol_epi64(s3, 45);

        const __m512i idx = _mm512_and_si512(b[j], strip);
        const __m512i m = _mm512_srli_epi64(b[j], 11);
        const __m512d hi = _mm512_sub_pd(
            _mm512_castsi512_pd(
                _mm512_or_si512(_mm512_srli_epi64(m, 32), exp84)),
            magic);
        const __m512d lo = _mm512_castsi512_pd(
            _mm512_or_si512(_mm512_and_si512(m, low32), exp52));
        const __m512d au = _mm512_mul_pd(_mm512_add_pd(hi, lo), unit);
        const __m512d x =
            _mm512_mul_pd(au, _mm512_i64gather_pd(idx, kZigX, 8));
        const __mmask8 ok = _mm512_cmp_pd_mask(
            x, _mm512_i64gather_pd(idx, kZigX + 1, 8), _CMP_LT_OQ);
        const __m512d z = _mm512_castsi512_pd(_mm512_or_si512(
            _mm512_castpd_si512(x),
            _mm512_slli_epi64(_mm512_and_si512(b[j], sign), 56)));
        if (j + 1 < V) {
          _mm512_storeu_pd(row + 8 * j, z);
        } else {
          _mm512_mask_storeu_pd(row + 8 * j, tail_real, z);
        }
        accepted |= static_cast<std::uint32_t>(ok) << (8 * j);
      }
      const std::uint32_t rejected = real & ~accepted;
      if (rejected != 0) {
        to_state<V>(s, st);
        #pragma GCC unroll 4
        for (int j = 0; j < V; ++j) _mm512_store_si512(&b_spill[8 * j], b[j]);
        replay(rngs, lane_of, st, b_spill, rejected, row);
        to_regs<V>(st, s);
      }
    }
    to_state<V>(s, st);
    store(rngs, lane_of, g, st);
  }
#endif

  /// One group of g <= kGroup lanes at `level`.
  static void group(LaneFill level, Rng* rngs, const std::size_t* lane_of,
                    std::size_t g, std::size_t n, double* out,
                    std::size_t stride) {
#if MRAM_RNG_X86_LANES
    if (level == LaneFill::kAvx512) {
      if (g > 8) return avx512<2>(rngs, lane_of, g, n, out, stride);
      return avx512<1>(rngs, lane_of, g, n, out, stride);
    }
    if (level == LaneFill::kAvx2) {
      switch ((g + 3) / 4) {
        case 1: return avx2<1>(rngs, lane_of, g, n, out, stride);
        case 2: return avx2<2>(rngs, lane_of, g, n, out, stride);
        case 3: return avx2<3>(rngs, lane_of, g, n, out, stride);
        default: return avx2<4>(rngs, lane_of, g, n, out, stride);
      }
    }
#endif
    (void)level;
    portable(rngs, lane_of, g, n, out, stride);
  }

  static void fill(LaneFill level, Rng* rngs, const std::size_t* lane_of,
                   std::size_t lanes, std::size_t n, double* out,
                   std::size_t stride) {
    for (std::size_t g0 = 0; g0 < lanes; g0 += kGroup) {
      group(level, rngs, lane_of + g0, std::min(kGroup, lanes - g0), n,
            out + g0, stride);
    }
  }
};

bool Rng::lane_fill_supported(LaneFill level) {
#if MRAM_RNG_X86_LANES
  if (level == LaneFill::kAvx512) return __builtin_cpu_supports("avx512f");
  if (level == LaneFill::kAvx2) return __builtin_cpu_supports("avx2");
#endif
  return level == LaneFill::kPortable;
}

namespace {

Rng::LaneFill widest_lane_fill() {
#if MRAM_RNG_X86_LANES
  __builtin_cpu_init();  // this runs as a static initializer
#endif
  for (auto level : {Rng::LaneFill::kAvx512, Rng::LaneFill::kAvx2}) {
    if (Rng::lane_fill_supported(level)) return level;
  }
  return Rng::LaneFill::kPortable;
}

// Picked once at load time. A static initializer elsewhere that fills
// before this one runs sees the zero-initialized kPortable, which yields
// the same values.
Rng::LaneFill g_lane_fill = widest_lane_fill();

}  // namespace

Rng::LaneFill Rng::lane_fill_level() { return g_lane_fill; }

void Rng::normal_fill_lanes(Rng* rngs, const std::size_t* lane_of,
                            std::size_t lanes, std::size_t n, double* out,
                            std::size_t stride) {
  LaneKernels::fill(g_lane_fill, rngs, lane_of, lanes, n, out, stride);
}

void Rng::normal_fill_lanes(LaneFill level, Rng* rngs,
                            const std::size_t* lane_of, std::size_t lanes,
                            std::size_t n, double* out, std::size_t stride) {
  MRAM_EXPECTS(lane_fill_supported(level),
               "normal_fill_lanes: level not supported on this CPU");
  LaneKernels::fill(level, rngs, lane_of, lanes, n, out, stride);
}

std::uint64_t Rng::below(std::uint64_t n) {
  MRAM_EXPECTS(n > 0, "below(n) requires n > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t v;
  do {
    v = next();
  } while (v >= limit);
  return v % n;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t index) {
  // Two rounds of splitmix64 over a golden-ratio combination of seed and
  // index decorrelate neighboring indices; reseed() then expands the result
  // into the four xoshiro state words with a third round.
  std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  const std::uint64_t a = splitmix64(x);
  const std::uint64_t b = splitmix64(x);
  return Rng(a ^ rotl(b, 32));
}

}  // namespace mram::util
